"""Binary matrix container, PGM codec and decomposition persistence."""

import re
from pathlib import Path
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dmdmotion import dmd, io_formats
from dmdmotion.background import ForegroundMaskSequence
from dmdmotion.dmd import MEDIAN_FRAME, DmdDecomposition, rdmd
from dmdmotion.io_formats import (
    MAGIC_COMPLEX,
    MAGIC_REAL,
    load_decomposition,
    load_masks,
    load_matrix,
    load_pgm,
    save_decomposition,
    save_frames,
    save_masks,
    save_matrix,
    save_pgm,
    scan_frames,
)
from dmdmotion.linalg import SketchConfig
from dmdmotion.synthetic import MovingRect, SyntheticSpec, generate_synthetic


# ------------------------------------------------------------------ matrices

def test_real_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((7, 5))
    path = str(tmp_path / "a.mat")
    save_matrix(path, A)
    B = load_matrix(path)
    assert B.dtype == np.float64
    assert np.array_equal(A, B)
    with open(path, "rb") as fh:
        assert fh.read(8) == MAGIC_REAL


def test_complex_matrix_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    A = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    path = str(tmp_path / "a.cpx")
    save_matrix(path, A)
    B = load_matrix(path)
    assert B.dtype == np.complex128
    assert np.array_equal(A, B)
    with open(path, "rb") as fh:
        assert fh.read(8) == MAGIC_COMPLEX


def test_complex_matrix_round_trip_is_bit_exact(tmp_path):
    # Signed zeros and infinities survive only if the entries are read back as
    # (real, imag) pairs, not rebuilt by arithmetic.
    A = np.array([[complex(-0.0, 1.0), complex(1.0, np.inf)],
                  [complex(np.inf, -0.0), complex(-np.inf, np.nan)]])
    path = str(tmp_path / "a.cpx")
    save_matrix(path, A)
    with open(path, "rb") as fh:
        body = fh.read()[24:]
    assert body == np.ascontiguousarray(A.view("<f8")).tobytes()
    assert load_matrix(path).tobytes() == A.tobytes()


def test_save_matrix_writes_a_c_ordered_matrix_without_a_copy(tmp_path):
    A = np.random.default_rng(2).uniform(size=(4000, 300))
    path = str(tmp_path / "a.mat")
    tracemalloc.start()
    try:
        save_matrix(path, A)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * A.nbytes
    assert load_matrix(path).tobytes() == A.tobytes()


@pytest.mark.parametrize("kind", ["real", "complex", "fortran"])
def test_matrix_round_trips_in_any_memory_order(tmp_path, kind):
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 9))
    if kind == "complex":
        A = A + 1j * rng.standard_normal((6, 9))
    elif kind == "fortran":
        A = np.asfortranarray(A)
    path = str(tmp_path / "a.mat")
    save_matrix(path, A)
    B = load_matrix(path)
    assert B.dtype == A.dtype
    assert np.array_equal(A, B)


def test_matrix_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_matrix(str(path))


def test_matrix_rejects_truncated_body(tmp_path):
    path = str(tmp_path / "trunc.mat")
    save_matrix(path, np.ones((3, 3)))
    blob = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(blob[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_matrix(path)


def test_matrix_rejects_non_2d():
    with pytest.raises(ValueError):
        save_matrix("/dev/null", np.ones(5))


# ------------------------------------------------------------------ pgm

def test_pgm_round_trip_8bit(tmp_path):
    img = (np.arange(12, dtype=np.uint8) * 20).reshape(3, 4)
    path = str(tmp_path / "f.pgm")
    save_pgm(path, img, maxval=255)
    loaded, maxval = load_pgm(path)
    assert maxval == 255
    assert np.array_equal(img, loaded)


def test_pgm_round_trip_16bit(tmp_path):
    rng = np.random.default_rng(2)
    img = rng.integers(0, 40000, size=(5, 7)).astype(np.uint16)
    path = str(tmp_path / "f16.pgm")
    save_pgm(path, img, maxval=65535)
    loaded, maxval = load_pgm(path)
    assert maxval == 65535
    assert loaded.dtype == np.uint16
    assert np.array_equal(img, loaded)


def test_pgm_16bit_raster_is_big_endian(tmp_path):
    img = np.array([[0x0102]], dtype=np.uint16)
    path = str(tmp_path / "be.pgm")
    save_pgm(path, img, maxval=65535)
    raw = open(path, "rb").read()
    assert raw.endswith(b"\x01\x02")


def test_pgm_rejects_color_format(tmp_path):
    path = tmp_path / "c.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(ValueError, match="P5"):
        load_pgm(str(path))


def test_pgm_header_comments_skipped(tmp_path):
    path = tmp_path / "commented.pgm"
    path.write_bytes(b"P5 # format\n# a comment line\n2 # width\n1 255\n\x07\x09")
    img, maxval = load_pgm(str(path))
    assert maxval == 255
    assert img.shape == (1, 2)
    assert img.tolist() == [[7, 9]]


def test_pgm_rejects_truncated_raster(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 7)
    with pytest.raises(ValueError, match="truncated"):
        load_pgm(str(path))


@pytest.mark.parametrize("header", [b"P5 3 x 255\n", b"P5 2 +1 1_0\n"])
def test_pgm_header_numbers_are_decimal_digits(tmp_path, header):
    # int() would read "+1" and "1_0" as 1 and 10; a Netpbm header holds
    # ASCII decimal digits only, and a file with anything else is named.
    path = tmp_path / "f.pgm"
    path.write_bytes(header + b"\x00" * 6)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: invalid PGM header$"):
        load_pgm(str(path))


def test_pgm_rejects_out_of_range_pixels():
    with pytest.raises(ValueError):
        save_pgm("/dev/null", np.array([[300]]), maxval=255)


@pytest.mark.parametrize("img, maxval, reason", [
    (np.zeros((2, 2, 1), dtype=np.uint8), 255, "PGM stores single 2-d frames"),
    (np.zeros((2, 2), dtype=np.uint8), 0, r"maxval 0 outside \[1, 65535\]"),
    (np.zeros((2, 2), dtype=np.uint8), 65536, r"maxval 65536 outside \[1, 65535\]"),
])
def test_pgm_rejects_an_image_or_maxval_it_cannot_store(tmp_path, img, maxval, reason):
    with pytest.raises(ValueError, match=f"^{reason}$"):
        save_pgm(str(tmp_path / "f.pgm"), img, maxval)
    assert not (tmp_path / "f.pgm").exists()


# Arbitrary header tokens, including ones that join or comment out their
# neighbours, and separators that the header grammar allows.
PGM_TOKENS = st.one_of(
    st.sampled_from([b"", b"#x", b"1_0", b"0x10", b"1e2", b"+3", b"\xff", b"P2"]),
    st.binary(min_size=1, max_size=4),
)
PGM_SEPARATORS = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b" #note\n"])


@st.composite
def pgm_files(draw):
    """P5 files whose width, height and maxval are numbers or arbitrary tokens."""

    def field(numbers):
        if draw(st.integers(0, 3)) == 0:
            return draw(PGM_TOKENS)
        return str(draw(st.sampled_from(numbers))).encode()

    fields = [field([-1, 0, 1, 2, 3, 10**20]), field([-1, 0, 1, 2, 3, 10**20]),
              field([0, 1, 255, 256, 65535, 65536])]
    seps = [draw(PGM_SEPARATORS) for _ in range(4)]
    header = b"P5" + b"".join(sep + f for sep, f in zip(seps, fields)) + seps[3]
    # Half the rasters hold enough 0/1 bytes for 3x3 16-bit pixels.
    small_pixels = st.binary(min_size=18, max_size=18).map(lambda b: bytes(v % 2 for v in b))
    return header + draw(st.one_of(st.binary(max_size=40), small_pixels))


@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=pgm_files())
@example(data=b"P5 2 1\n255\n\x00\x07")
@example(data=b"P5\n1 1\n300\n\x01\x2d")
def test_pgm_fuzzed_header_loads_or_raises_value_error(tmp_path, data):
    path = tmp_path / "fuzz.pgm"
    path.write_bytes(data)
    try:
        img, maxval = load_pgm(str(path))
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: ")
        return
    assert img.ndim == 2 and img.size >= 1
    assert 1 <= maxval <= 65535
    assert img.max() <= maxval


# ------------------------------------------------------------------ frames

def test_frames_round_trip_is_exact(tmp_path):
    spec = SyntheticSpec(frame_height=6, frame_width=8, n_frames=5,
                         noise_sigma=0.03, seed=3)
    D, _ = generate_synthetic(spec)
    save_frames(str(tmp_path), D, maxval=255)
    files = scan_frames(str(tmp_path / "frame_*.pgm"))
    loaded = files.columns(0, files.n_frames)
    assert loaded.frame_height == 6 and loaded.frame_width == 8
    assert loaded.n_frames == 5
    # one quantization error of at most half a gray level per pixel
    assert np.max(np.abs(loaded.data - D.data)) <= 0.5 / 255 + 1e-12
    # and saving the loaded frames reproduces the files bit for bit
    save_frames(str(tmp_path / "again"), loaded, maxval=255)
    for t in range(5):
        a = open(tmp_path / f"frame_{t:05d}.pgm", "rb").read()
        b = open(tmp_path / "again" / f"frame_{t:05d}.pgm", "rb").read()
        assert a == b


def test_frames_lexicographic_order(tmp_path):
    for t in (2, 0, 1):
        save_pgm(str(tmp_path / f"frame_{t:05d}.pgm"),
                 np.full((2, 2), t * 10, dtype=np.uint8))
    files = scan_frames(str(tmp_path / "frame_*.pgm"))
    D, paths = files.columns(0, files.n_frames), files.paths
    assert np.allclose(D.data[0], np.array([0.0, 10.0, 20.0]) / 255)
    assert paths == tuple(str(tmp_path / f"frame_{t:05d}.pgm") for t in range(3))


def test_frames_require_consistent_geometry(tmp_path):
    save_pgm(str(tmp_path / "a_00.pgm"), np.zeros((2, 2), dtype=np.uint8))
    save_pgm(str(tmp_path / "a_01.pgm"), np.zeros((3, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match="geometry"):
        scan_frames(str(tmp_path / "a_*.pgm"))


def test_frames_require_at_least_two(tmp_path):
    save_pgm(str(tmp_path / "only.pgm"), np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match="at least 2"):
        scan_frames(str(tmp_path / "only.pgm"))


def test_frames_maxval_normalization(tmp_path):
    img = np.array([[0, 50], [100, 100]], dtype=np.uint8)
    save_pgm(str(tmp_path / "n_0.pgm"), img, maxval=100)
    save_pgm(str(tmp_path / "n_1.pgm"), img, maxval=100)
    files = scan_frames(str(tmp_path / "n_*.pgm"))
    D = files.columns(0, files.n_frames)
    assert D.data.max() == 1.0
    assert D.data[1, 0] == 0.5


@pytest.mark.parametrize("maxval", [100, 255, 1000, 65535])
def test_frames_fill_matches_stacked_columns(tmp_path, maxval):
    # 8-bit and 16-bit rasters; each column is the frame over its maxval.
    rng = np.random.default_rng(maxval)
    imgs = [rng.integers(0, maxval + 1, size=(5, 7)) for _ in range(4)]
    for t, img in enumerate(imgs):
        save_pgm(str(tmp_path / f"f_{t}.pgm"), img, maxval)
    files = scan_frames(str(tmp_path / "f_*.pgm"))
    D = files.columns(0, files.n_frames)
    stacked = np.stack([img.reshape(-1).astype(np.float64) / maxval for img in imgs], axis=1)
    assert D.data.flags.c_contiguous
    assert D.data.shape == stacked.shape and D.data.tobytes() == stacked.tobytes()


@pytest.mark.parametrize(
    "n_frames",
    # The maxvals repeat every six frames as 255, 100, 100, 1000, 1000,
    # 65535, and each run of equal maxval is divided as one: a chunk of two
    # 8-bit runs (2, 3 frames), a lone 16-bit frame after them (4), a run of
    # two 16-bit frames (5), a 16-bit run at the end (6), and long chunks
    # that end inside a run.
    [2, 3, 4, 5, 6, 63, 64, 65, 1023, 1024, 1025],
)
def test_frames_equal_the_per_column_fill(tmp_path, n_frames):
    # 8-bit and 16-bit rasters of four maxvals share one glob: the 8-bit ones
    # go through the uint8 buffer, the 16-bit ones straight into their columns.
    rng = np.random.default_rng(n_frames)
    maxvals = [255, 100, 100, 1000, 1000, 65535]
    for t in range(n_frames):
        maxval = maxvals[t % 6]
        save_pgm(str(tmp_path / f"f_{t:05d}.pgm"), rng.integers(0, maxval + 1, size=(3, 5)), maxval)
    files = scan_frames(str(tmp_path / "f_*.pgm"))
    D, paths = files.columns(0, files.n_frames), files.paths
    # The former fill: each frame divided straight into its matrix column.
    expected = np.empty((15, n_frames))
    for j, path in enumerate(paths):
        img, maxval = load_pgm(path)
        np.divide(img.reshape(-1), maxval, out=expected[:, j], dtype=np.float64)
    assert D.data.flags.c_contiguous
    assert D.data.shape == expected.shape and D.data.tobytes() == expected.tobytes()
    # A chunk that starts on a 16-bit frame makes its uint8 buffer at its
    # first 8-bit frame, if it has one.
    if n_frames > 4:
        tail = files.columns(3, n_frames).data
        assert tail.tobytes() == expected[:, 3:].copy().tobytes()


@pytest.mark.parametrize("pad", [4083, 4084, 4085, 4090, 4093, 5000])
def test_scan_reads_a_header_that_runs_past_its_first_read(tmp_path, pad):
    # A comment pads each header to end near or past the scan's first 4096
    # bytes: 4083 reads the maxval 100 and its separator as the last byte,
    # 4084 ends the read on the maxval's last digit with its separator
    # unread, 4085 cuts the maxval to "10", 4090 leaves two tokens, and 4093
    # and 5000 cut the comment itself.
    raster = np.arange(0, 60, 10, dtype=np.uint8).reshape(2, 3)

    def write(t, maxval):
        header = b"P5\n#" + b"x" * pad + b"\n3 2\n" + str(maxval).encode() + b"\n"
        (tmp_path / f"f_{t}.pgm").write_bytes(header + raster.tobytes())

    write(0, 100)
    write(1, 100)
    files = scan_frames(str(tmp_path / "f_*.pgm"))
    assert (files.frame_height, files.frame_width) == (2, 3)
    assert files.columns(0, 2).data.tobytes() == np.repeat(
        raster.reshape(-1, 1) / 100, 2, axis=1).tobytes()
    write(1, 4)
    with pytest.raises(ValueError, match=r"f_1\.pgm: pixel value exceeds maxval 4"):
        scan_frames(str(tmp_path / "f_*.pgm"))


@pytest.mark.parametrize("maxval", [200, 1000])
def test_a_frame_rewritten_after_its_scan_is_checked_when_read(tmp_path, maxval):
    # columns does not scan the matrix it builds: each raster is checked
    # against its maxval and the scanned geometry as it is read, so a frame
    # that gained a pixel above its maxval, or another geometry, after
    # scan_frames still fails, naming its file.
    for t in range(3):
        save_pgm(str(tmp_path / f"f_{t}.pgm"), np.full((2, 3), t, dtype=np.uint16), maxval)
    files = scan_frames(str(tmp_path / "f_*.pgm"))
    save_pgm(str(tmp_path / "f_1.pgm"), np.full((2, 3), maxval + 1, dtype=np.uint16), maxval + 1)
    data = (tmp_path / "f_1.pgm").read_bytes()
    (tmp_path / "f_1.pgm").write_bytes(data.replace(str(maxval + 1).encode(), str(maxval).encode(), 1))
    path = re.escape(str(tmp_path / "f_1.pgm"))
    with pytest.raises(ValueError, match=f"^{path}: pixel value exceeds maxval {maxval}$"):
        files.columns(0, 3)
    save_pgm(str(tmp_path / "f_1.pgm"), np.full((3, 2), 1, dtype=np.uint16), maxval)
    with pytest.raises(
        ValueError, match=f"^{path}: frame geometry \\(3, 2\\) differs from first frame \\(2, 3\\)$"
    ):
        files.columns(0, 3)


def test_frames_hold_one_copy_of_the_video(tmp_path):
    # An 8-bit chunk and a 16-bit one. The 8-bit rasters go through a uint8
    # buffer of 1/8 of the matrix; a 16-bit frame is cast straight into its
    # column, so a 16-bit chunk makes no buffer.
    rng = np.random.default_rng(5)
    for maxval in (255, 1000):
        for t in range(40):
            save_pgm(str(tmp_path / f"f{maxval}_{t:02d}.pgm"),
                     rng.integers(0, maxval + 1, size=(48, 64)), maxval)
        tracemalloc.start()
        try:
            files = scan_frames(str(tmp_path / f"f{maxval}_*.pgm"))
            D = files.columns(0, files.n_frames)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * D.data.nbytes


CHUNKS = {
    # (frame shape, maxvals repeated over the frames, frames, rasters kept)
    "8-bit, odd left sequence": ((6, 8), [255], 20, True),
    "8-bit, even left sequence": ((6, 8), [255], 21, True),
    "maxval 1": ((6, 8), [1], 20, True),
    "maxval 100, longest chunk": ((6, 8), [100], 31, True),
    "chunk too long": ((6, 8), [255], 32, True),
    "frames too small": ((5, 8), [255], 20, True),
    "16-bit": ((6, 8), [1000], 20, False),
    "mixed 8-bit maxvals": ((6, 8), [255, 100], 20, False),
    "8-bit then 16-bit": ((6, 8), [255] * 19 + [1000], 20, False),
}


@pytest.mark.parametrize("case", CHUNKS)
def test_a_chunk_keeps_its_rasters_only_for_the_network_anchor(tmp_path, case):
    # A chunk carries its rasters for the median anchor exactly when every
    # frame is 8-bit with one maxval, whatever its length or frame size; the
    # anchor consumes them and gives the partition's bytes.
    shape, maxvals, n_frames, kept = CHUNKS[case]
    rng = np.random.default_rng(n_frames)
    for t in range(n_frames):
        maxval = maxvals[t % len(maxvals)]
        save_pgm(str(tmp_path / f"f_{t:02d}.pgm"), rng.integers(0, maxval + 1, size=shape), maxval)
    files = scan_frames(str(tmp_path / "f_*.pgm"))
    D = files.columns(0, files.n_frames)
    assert hasattr(D, "_rasters") == kept
    expected = np.median(D.data[:, :-1], axis=1)
    assert dmd._anchor_frame(D, MEDIAN_FRAME).tobytes() == expected.tobytes()
    assert not hasattr(D, "_rasters")


# ------------------------------------------------------------------ masks

def test_masks_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    masks = ForegroundMaskSequence(rng.uniform(size=(3, 5, 4)) < 0.4, tau=None)
    paths = save_masks(str(tmp_path), masks)
    assert len(paths) == 3
    loaded = load_masks(str(tmp_path / "mask_*.pgm"))
    assert np.array_equal(loaded.masks, masks.masks)
    img, maxval = load_pgm(paths[0])
    assert set(np.unique(img)) <= {0, 255}


@pytest.mark.parametrize("maxval, pixels, named", [
    (1, [0, 1, 1, 0], None), (65535, [65535, 0, 0, 65535], None),
    (255, [0, 85, 170, 255], 85), (65535, [0, 65535, 65534, 0], 65534),
])
def test_masks_hold_only_0_and_maxval(tmp_path, maxval, pixels, named):
    # Such masks read as before, a pixel above maxval // 2 as foreground;
    # a pixel of any other value, such as a change-detection label, is named.
    img = np.array([pixels])
    save_pgm(str(tmp_path / "m_0.pgm"), img, maxval)
    if named is None:
        assert np.array_equal(load_masks(str(tmp_path / "m_*.pgm")).masks[0], img > maxval // 2)
    else:
        with pytest.raises(ValueError) as exc:
            load_masks(str(tmp_path / "m_*.pgm"))
        assert str(exc.value) == (f"{tmp_path / 'm_0.pgm'}: mask pixel {named} "
                                  f"is neither 0 nor maxval {maxval}")


def test_masks_require_consistent_geometry(tmp_path):
    save_pgm(str(tmp_path / "m_0.pgm"), np.zeros((2, 2), dtype=np.uint8))
    save_pgm(str(tmp_path / "m_1.pgm"), np.zeros((3, 2), dtype=np.uint8))
    with pytest.raises(ValueError, match=r"m_1\.pgm: mask geometry \(3, 2\) differs "
                                         r"from first mask \(2, 2\)"):
        load_masks(str(tmp_path / "m_*.pgm"))
    pattern = str(tmp_path / "x_*.pgm")
    with pytest.raises(ValueError, match=f"^mask pattern {re.escape(repr(pattern))} matched no files$"):
        load_masks(pattern)


def test_masks_are_save_pgm_bytes(tmp_path):
    # save_masks fills one reused header-and-raster buffer per file; each file
    # holds the bytes save_pgm writes for that frame at 0/255. The masks are
    # a transposed view, as threshold_mask returns them, over 1x1 to 3x5
    # frames and an empty one.
    rng = np.random.default_rng(4)
    for h, w in [(1, 1), (3, 5), (4, 2)]:
        masks = (rng.random((h * w, 3)) > 0.5).T.reshape(3, h, w)
        masks[1] = False
        out = tmp_path / f"{h}x{w}"
        paths = save_masks(str(out), ForegroundMaskSequence(masks))
        for t, path in enumerate(paths):
            save_pgm(str(out / "expected.pgm"), masks[t].astype(np.uint8) * 255)
            assert Path(path).read_bytes() == (out / "expected.pgm").read_bytes()


def test_masks_custom_stems(tmp_path):
    masks = ForegroundMaskSequence(np.zeros((2, 2, 2), dtype=bool), tau=None)
    paths = save_masks(str(tmp_path), masks, stems=["in000_mask", "in001_mask"])
    assert sorted(p.split("/")[-1] for p in paths) == [
        "in000_mask.pgm", "in001_mask.pgm"
    ]
    with pytest.raises(ValueError):
        save_masks(str(tmp_path), masks, stems=["lonely"])


def test_masks_pair_with_their_frames_by_number(tmp_path, monkeypatch):
    # Equal numbers pair, whatever their padding; the first pair of unequal
    # numbers is named before any raster is read; and when any name has no
    # digits, position alone pairs them.
    masks = ForegroundMaskSequence(np.eye(3, dtype=bool)[:, None, :])
    save_masks(str(tmp_path), masks, stems=["gt8", "gt9", "gt10"])
    frames = ["in000008.pgm", "in000009.pgm", "in000010.pgm"]
    pattern = str(tmp_path / "gt*.pgm")
    # Sorted by name, gt10 comes first.
    with pytest.raises(ValueError, match=r"^mask .*gt10\.pgm \(number 10\) is paired with "
                                         r"in000008\.pgm \(number 8\)$"):
        load_masks(pattern, frames)
    in_name_order = ["in000010.pgm", "in000008.pgm", "in000009.pgm"]
    assert np.array_equal(load_masks(pattern, in_name_order).masks, masks.masks[[2, 0, 1]])
    for unnumbered in (["a.pgm", "b.pgm", "c.pgm"], ["in8.pgm", "in9.pgm", "last.pgm"]):
        assert np.array_equal(load_masks(pattern, unnumbered).masks, masks.masks[[2, 0, 1]])

    def unread(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(io_formats, "load_pgm", unread)
    with pytest.raises(ValueError, match="is paired with"):
        load_masks(pattern, ["in1.pgm", "in2.pgm", "in3.pgm"])


# ------------------------------------------------------------------ decompositions

def fitted_decomposition(anchor=MEDIAN_FRAME):
    spec = SyntheticSpec(frame_height=8, frame_width=8, n_frames=24,
                         objects=(MovingRect(2.0, 1.0, 3, 3, 1.0, (0.0, 0.2)),),
                         noise_sigma=0.02, seed=5)
    D, _ = generate_synthetic(spec)
    return rdmd(D, SketchConfig(rank=4, oversampling=2, subspace_iters=1, seed=6),
                anchor=anchor)


def test_decomposition_round_trip(tmp_path):
    dec = fitted_decomposition()
    save_decomposition(str(tmp_path), dec)
    back = load_decomposition(str(tmp_path))
    assert np.array_equal(back.modes, dec.modes)
    assert np.array_equal(back.eigenvalues, dec.eigenvalues)
    assert np.array_equal(back.amplitudes, dec.amplitudes)
    assert back.n_frames == dec.n_frames
    assert (back.frame_height, back.frame_width) == (8, 8)
    assert back.anchor == dec.anchor
    assert back.seed == dec.seed


@pytest.mark.parametrize("anchor", ["first", "median", 0, 5])
def test_decomposition_round_trips_each_anchor_kind(tmp_path, anchor):
    save_decomposition(str(tmp_path), fitted_decomposition(anchor))
    assert f"\nanchor {anchor}\n" in (tmp_path / "manifest.txt").read_text()
    back = load_decomposition(str(tmp_path)).anchor
    assert back == anchor and type(back) is type(anchor)


def test_decomposition_rejects_spans_manifest(tmp_path):
    # A manifest with per-span amplitudes must not load as whole-sequence ones.
    save_decomposition(str(tmp_path), fitted_decomposition())
    with open(tmp_path / "manifest.txt", "a") as fh:
        fh.write("spans 0:8,8:16,16:24\n")
    with pytest.raises(ValueError, match="per-span amplitudes"):
        load_decomposition(str(tmp_path))


def test_decomposition_manifest_keeps_unit_frame_spacing(tmp_path):
    # A decomposition has no frame spacing: frames are one step apart, and the
    # manifest still carries that spacing so its bytes stay the same.
    dec = DmdDecomposition(modes=np.eye(4, 2, dtype=np.complex128),
                           eigenvalues=np.array([1.0, 0.5j]), amplitudes=np.ones(2, complex),
                           n_frames=6, frame_height=2, frame_width=2)
    save_decomposition(str(tmp_path), dec)
    assert (tmp_path / "manifest.txt").read_text() == (
        "format rdmd-decomposition-1\nrank 2\nn_frames 6\ndt 1.0\n"
        "frame_height 2\nframe_width 2\nanchor median\nseed 0\n"
    )


def test_decomposition_rejects_other_frame_spacing(tmp_path):
    save_decomposition(str(tmp_path), fitted_decomposition())
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("dt 1.0", "dt 0.5"))
    with pytest.raises(ValueError, match="one step apart, got dt 0.5"):
        load_decomposition(str(tmp_path))


@pytest.mark.parametrize("key", ["seed", "n_frames", "anchor", "frame_height", "frame_width"])
def test_decomposition_rejects_manifest_without_a_line(tmp_path, key):
    save_decomposition(str(tmp_path), fitted_decomposition())
    manifest = tmp_path / "manifest.txt"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(line for line in lines if not line.startswith(key + " ")))
    with pytest.raises(ValueError, match=f"manifest has no {key} line"):
        load_decomposition(str(tmp_path))


def test_decomposition_rejects_rank_that_disagrees_with_eigenvalues(tmp_path):
    save_decomposition(str(tmp_path), fitted_decomposition())
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("rank 4\n", "rank 5\n"))
    with pytest.raises(ValueError, match="manifest rank 5 but 4 eigenvalues"):
        load_decomposition(str(tmp_path))


def test_decomposition_rejects_non_integer_count(tmp_path):
    save_decomposition(str(tmp_path), fitted_decomposition())
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("n_frames 24", "n_frames 2.4e1"))
    with pytest.raises(ValueError, match="manifest n_frames '2.4e1' is not an integer"):
        load_decomposition(str(tmp_path))


@pytest.mark.parametrize("line, reason", [
    ("frame_height 7", "frame_height x frame_width = 7x8 does not match 64 pixels"),
    ("frame_width 0", "frame_width must be >= 1, got 0"),
    ("n_frames -3", "n_frames must be >= 2, got -3"),
    ("anchor foo", "anchor must be 'first', 'median' or a frame index >= 0, got 'foo'"),
    ("anchor -5", "anchor must be 'first', 'median' or a frame index >= 0, got -5"),
    ("seed -2", "seed must be an integer >= 0, got -2"),
])
def test_decomposition_rejects_manifest_geometry_that_disagrees(tmp_path, line, reason):
    # Such a manifest once loaded into a decomposition of 8x8 modes, or with
    # an anchor or seed that no fit uses; the error names the directory.
    save_decomposition(str(tmp_path), fitted_decomposition())
    manifest = tmp_path / "manifest.txt"
    key = line.split()[0]
    text = "".join(line + "\n" if old.startswith(key + " ") else old
                   for old in manifest.read_text().splitlines(keepends=True))
    manifest.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{tmp_path}: {reason}')}$"):
        load_decomposition(str(tmp_path))


def test_decomposition_rejects_foreign_manifest(tmp_path):
    (tmp_path / "manifest.txt").write_text("format something-else\n")
    with pytest.raises(ValueError, match="manifest"):
        load_decomposition(str(tmp_path))


def test_decomposition_save_is_deterministic(tmp_path):
    dec = fitted_decomposition()
    save_decomposition(str(tmp_path / "a"), dec)
    save_decomposition(str(tmp_path / "b"), dec)
    for name in ("manifest.txt", "modes.cpx", "eigenvalues.cpx", "amplitudes.cpx"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
