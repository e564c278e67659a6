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
import struct

import numpy as np

from .background import ForegroundMaskSequence
from .dmd import DmdDecomposition, SnapshotMatrix

__all__ = [
    "MAGIC_REAL",
    "MAGIC_COMPLEX",
    "save_matrix",
    "load_matrix",
    "save_pgm",
    "load_pgm",
    "load_frames",
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

# Most frames load_frames normalizes before storing them in the matrix.
FRAME_BLOCK = 64

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


def _parse_pgm_header(data: bytes, path: str) -> tuple[int, int, int, int]:
    # Tokens are whitespace separated; '#' starts a comment running to EOL.
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < 4 and i < len(data):
        c = data[i : i + 1]
        if c in b" \t\r\n":
            i += 1
        elif c == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        else:
            j = i
            while j < len(data) and data[j : j + 1] not in b" \t\r\n#":
                j += 1
            tokens.append(data[i:j])
            i = j
    if len(tokens) < 4:
        raise ValueError(f"{path}: truncated PGM header")
    if tokens[0] != b"P5":
        raise ValueError(
            f"{path}: expected binary grayscale PGM (P5), got {tokens[0]!r}"
        )
    width, height, maxval = (int(t) for t in tokens[1:4])
    if width < 1 or height < 1 or not 1 <= maxval <= 65535:
        raise ValueError(f"{path}: invalid PGM dimensions or maxval")
    # Exactly one whitespace byte separates maxval from the raster.
    return width, height, maxval, i + 1


def load_pgm(path: str) -> tuple[np.ndarray, int]:
    """(image array (height, width), maxval); 16-bit rasters are big-endian."""
    with open(path, "rb") as fh:
        data = fh.read()
    width, height, maxval, offset = _parse_pgm_header(data, path)
    count = width * height
    dtype = ">u2" if maxval > 255 else np.uint8
    per_pixel = 2 if maxval > 255 else 1
    if len(data) - offset < count * per_pixel:
        raise ValueError(f"{path}: truncated PGM raster")
    raster = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
    img = raster.reshape(height, width).astype(np.uint16 if maxval > 255 else np.uint8)
    if img.max(initial=0) > maxval:
        raise ValueError(f"{path}: pixel value exceeds maxval {maxval}")
    return img, maxval


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


def load_frames(pattern: str) -> tuple[SnapshotMatrix, list[str]]:
    """Assemble a snapshot matrix from the PGM files matching a glob pattern.

    Files are taken in lexicographic order; each becomes one column, flattened
    row-major and normalized to [0, 1] by its maxval. Returns the matrix and
    the file paths in column order.
    """
    paths = sorted(glob.glob(pattern))
    n = len(paths)
    if n < 2:
        raise ValueError(f"need at least 2 frames, pattern {pattern!r} matched {n}")
    # Frames are normalized into contiguous rows of a small buffer, and each
    # full buffer is stored as one transposed slice of the column-per-frame
    # matrix; at most n/16 frames, so the buffer adds at most 1/16 of the video.
    block = max(1, min(FRAME_BLOCK, n // 16))
    data = rows = None
    for j, p in enumerate(paths):
        img, maxval = load_pgm(p)
        if data is None:
            geometry = img.shape
            data = np.empty((img.size, n))
            rows = np.empty((block, img.size))
        elif img.shape != geometry:
            raise ValueError(
                f"{p}: frame geometry {img.shape} differs from first frame {geometry}"
            )
        np.divide(img.reshape(-1), maxval, out=rows[j % block], dtype=np.float64)
        if j % block == block - 1 or j == n - 1:
            start = j - j % block
            data[:, start : j + 1] = rows[: j + 1 - start].T
    return SnapshotMatrix(data=data, frame_height=geometry[0], frame_width=geometry[1]), paths


def save_frames(
    directory: str,
    D: SnapshotMatrix,
    stem: str = "frame",
    maxval: int = 255,
) -> list[str]:
    """Quantize each frame to [0, maxval] and write numbered PGM files."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for t in range(D.n_frames):
        img = np.rint(D.frame(t) * maxval).astype(np.uint32)
        path = os.path.join(directory, f"{stem}_{t:05d}.pgm")
        save_pgm(path, img, maxval)
        paths.append(path)
    return paths


def save_masks(
    directory: str,
    seq: ForegroundMaskSequence,
    stems: list[str] | None = None,
) -> list[str]:
    """One P5 file per mask frame, foreground 255, background 0.

    stems, when given, name the files 1:1 after the input frames.
    """
    if stems is not None and len(stems) != seq.n_frames:
        raise ValueError(f"{len(stems)} stems for {seq.n_frames} mask frames")
    os.makedirs(directory, exist_ok=True)
    paths = []
    for t in range(seq.n_frames):
        stem = stems[t] if stems is not None else f"mask_{t:05d}"
        path = os.path.join(directory, f"{stem}.pgm")
        save_pgm(path, seq.masks[t].astype(np.uint8) * 255, maxval=255)
        paths.append(path)
    return paths


def load_masks(pattern: str) -> ForegroundMaskSequence:
    paths = sorted(glob.glob(pattern))
    if not paths:
        raise ValueError(f"mask pattern {pattern!r} matched no files")
    masks = None
    for t, p in enumerate(paths):
        img, maxval = load_pgm(p)
        if masks is None:
            masks = np.empty((len(paths), *img.shape), dtype=bool)
        elif img.shape != masks.shape[1:]:
            raise ValueError(
                f"{p}: mask geometry {img.shape} differs from first mask {masks.shape[1:]}"
            )
        np.greater(img, maxval // 2, out=masks[t])
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
    anchor: str | int = fields["anchor"]
    try:
        anchor = int(anchor)
    except ValueError:
        pass
    return DmdDecomposition(
        modes=modes, eigenvalues=eigenvalues, amplitudes=amplitudes, anchor=anchor, **counts
    )
