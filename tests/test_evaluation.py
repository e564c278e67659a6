"""Metrics, ROC sweeps, AUC and their published reference values."""

import csv
import tracemalloc

import numpy as np
import pytest
import scipy.ndimage
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dmdmotion.background import ForegroundMaskSequence, ResidualSequence
from dmdmotion import dmd, evaluation
from dmdmotion.evaluation import (
    ConfusionCounts,
    RocCurve,
    best_f_from_counts,
    confusion,
    rates,
    sweep_counts,
    tau_grid,
    write_metrics_csv,
    write_roc_csv,
)

from helpers import (
    median_filter,
    partition_sweep_counts,
    searchsorted_ranks,
    threshold_mask,
    window_medians_by_partition,
)


def masks_of(array):
    return ForegroundMaskSequence(np.asarray(array, dtype=bool), tau=None)


# ---------------------------------------------------------------- confusion

def test_confusion_all_ones():
    ones = masks_of(np.ones((2, 3, 4)))
    c = confusion(ones, ones)
    assert (c.tp, c.fp, c.tn, c.fn) == (24, 0, 0, 0)


def test_confusion_complement():
    truth = masks_of(np.eye(4, dtype=bool)[None])
    pred = masks_of(~np.eye(4, dtype=bool)[None])
    c = confusion(pred, truth)
    assert c.tp == 0 and c.tn == 0
    assert c.fp == 12 and c.fn == 4


def test_confusion_two_by_two_enumeration():
    pred = masks_of([[[True, False], [True, False]]])
    truth = masks_of([[[True, True], [False, False]]])
    c = confusion(pred, truth)
    assert (c.tp, c.fn, c.fp, c.tn) == (1, 1, 1, 1)


def eight_mask_confusion(p, t):
    """The four counts from four complements and four intersections."""
    return (int(np.count_nonzero(p & t)), int(np.count_nonzero(p & ~t)),
            int(np.count_nonzero(~p & ~t)), int(np.count_nonzero(~p & t)))


@pytest.mark.parametrize("case", ["random", "empty truth", "all-true truth",
                                  "all-false prediction"])
def test_confusion_equals_per_cell_counts(case):
    rng = np.random.default_rng(3)
    p = rng.uniform(size=(5, 7, 9)) > 0.6
    t = rng.uniform(size=p.shape) > 0.3
    if case == "empty truth":
        t[:] = False
    elif case == "all-true truth":
        t[:] = True
    elif case == "all-false prediction":
        p[:] = False
    c = confusion(masks_of(p), masks_of(t))
    assert (c.tp, c.fp, c.tn, c.fn) == eight_mask_confusion(p, t)


def test_confusion_geometry_mismatch():
    with pytest.raises(ValueError):
        confusion(masks_of(np.zeros((1, 2, 2))), masks_of(np.zeros((1, 3, 2))))


@pytest.mark.parametrize("fields, reason", [
    ({"fpr": np.array([0.0, 1.5, 1.0])}, r"^ROC coordinates must lie in \[0, 1\]$"),
    ({"tpr": np.array([0.0, -0.1, 1.0])}, r"^ROC coordinates must lie in \[0, 1\]$"),
    ({"taus": np.array([np.inf, 0.5, 0.7])}, "^ROC points must be ordered by descending tau$"),
    ({"auc": 1.5}, r"^auc 1.5 outside \[0, 1\]$"),
    ({"auc": -0.5}, r"^auc -0.5 outside \[0, 1\]$"),
])
def test_roc_curve_rejects_points_or_area_off_the_unit_square(fields, reason):
    curve = {"taus": np.array([np.inf, 0.5, -np.inf]), "fpr": np.array([0.0, 0.5, 1.0]),
             "tpr": np.array([0.0, 0.5, 1.0]), "auc": 0.5}
    with pytest.raises(ValueError, match=reason):
        RocCurve(**{**curve, **fields})


def test_confusion_counts_validation():
    with pytest.raises(ValueError):
        ConfusionCounts(1, -1, 0, 0)


# ---------------------------------------------------------------- rates

def test_recall_simple():
    assert rates(ConfusionCounts(tp=9, fp=0, tn=0, fn=1))["recall"] == pytest.approx(0.9)


def test_f_measure_of_equal_rates():
    r = rates(ConfusionCounts(tp=8, fp=2, tn=0, fn=2))
    assert r["recall"] == r["precision"] == pytest.approx(0.8)
    assert r["f_measure"] == pytest.approx(0.8)


def test_f_measure_published_value():
    # reported rates 0.810 / 0.789 give an F of 0.799
    r = rates(ConfusionCounts(tp=63909, fp=17091, tn=0, fn=14991))
    assert (r["recall"], r["precision"]) == (0.810, 0.789)
    assert r["f_measure"] == pytest.approx(0.799, abs=1e-3)


def test_zero_denominators_flagged():
    empty = masks_of(np.zeros((1, 2, 2)))
    r = rates(confusion(empty, empty))
    assert r["recall"] == 0.0 and r["precision"] == 0.0
    assert r["specificity"] == 1.0
    assert r["f_measure"] == 0.0


def float_rates(tp, fp, tn, fn):
    """The four rates in Python float arithmetic; a zero-denominator rate is 0."""

    def rate(num, den):
        return num / den if den else 0.0

    r, p = rate(tp, tp + fn), rate(tp, tp + fp)
    return {"recall": r, "precision": p, "specificity": rate(tn, tn + fp),
            "f_measure": 2.0 * r * p / (r + p) if r + p else 0.0}


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, 2**40))] * 4),
                min_size=1, max_size=12))
def test_rates_of_rows_equal_python_float_rates_of_each_row(rows):
    # Zero denominators, equal counts and counts of 2**40 alike: the float64
    # arrays of a 2-D array and the floats of one row or of a ConfusionCounts
    # are, bit for bit, the rates in Python float arithmetic.
    arrays = rates(np.array(rows, dtype=np.int64))
    assert list(arrays) == ["recall", "precision", "specificity", "f_measure"]
    for i, row in enumerate(rows):
        expected = float_rates(*row)
        assert rates(row) == rates(ConfusionCounts(*row)) == expected
        assert all(type(v) is float for v in rates(row).values())
        assert {k: v[i] for k, v in arrays.items()} == expected
    assert all(v.dtype == np.float64 and v.shape == (len(rows),) for v in arrays.values())


@settings(deadline=None, max_examples=50)
@given(
    tp=st.integers(0, 50),
    fp=st.integers(0, 50),
    tn=st.integers(0, 50),
    fn=st.integers(0, 50),
)
def test_rates_bounded(tp, fp, tn, fn):
    rs = rates(ConfusionCounts(tp, fp, tn, fn))
    r, p, f = rs["recall"], rs["precision"], rs["f_measure"]
    assert 0.0 <= r <= 1.0
    assert 0.0 <= p <= 1.0
    assert 0.0 <= rs["specificity"] <= 1.0
    assert 0.0 <= f <= 1.0
    assert f <= (r + p) / 2 + 1e-12  # harmonic mean never beats arithmetic


# ---------------------------------------------------------------- roc

def sweep_roc(S, truth, taus=None):
    """The run's ROC: RocCurve.from_counts over sweep_counts, tau_grid by default."""
    taus = tau_grid(float(S.values.max())) if taus is None else taus
    return RocCurve.from_counts(taus, sweep_counts(S, truth, taus)[0])


def separable_instance(n=400, seed=0):
    rng = np.random.default_rng(seed)
    truth = rng.uniform(size=n) < 0.3
    values = np.where(truth, rng.uniform(0.6, 1.0, n), rng.uniform(0.0, 0.4, n))
    S = ResidualSequence(values.reshape(n, 1), n, 1)
    masks = ForegroundMaskSequence(truth.reshape(1, n, 1), tau=None)
    return S, masks


def test_roc_perfect_separability():
    S, truth = separable_instance()
    curve = sweep_roc(S, truth, np.linspace(0.0, 1.0, 21))
    assert curve.auc == pytest.approx(1.0, abs=1e-9)


def test_roc_random_residual_auc_half():
    # 1e5 pixels of residual independent of the labels: chance level
    rng = np.random.default_rng(7)
    n = 100_000
    values = rng.uniform(size=n)
    truth = rng.uniform(size=n) < 0.5
    S = ResidualSequence(values.reshape(n, 1), n, 1)
    curve = sweep_roc(S, ForegroundMaskSequence(truth.reshape(1, n, 1), tau=None))
    assert curve.auc == pytest.approx(0.5, abs=0.02)


def test_roc_inverted_residual_flips_auc():
    S, truth = separable_instance(seed=3)
    taus = np.linspace(0.05, 0.95, 19)  # interior thresholds only
    top = float(S.values.max())
    inverted = ResidualSequence(top - S.values, S.frame_height, S.frame_width)
    curve = sweep_roc(S, truth, taus)
    curve_inv = sweep_roc(inverted, truth, top - taus)
    assert curve_inv.auc == pytest.approx(1.0 - curve.auc, abs=1e-9)


def test_roc_points_ordered_and_monotone():
    S, truth = separable_instance(seed=5)
    curve = sweep_roc(S, truth)
    assert curve.taus.shape == curve.fpr.shape == curve.tpr.shape
    assert all(a >= b for a, b in zip(curve.taus, curve.taus[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(curve.fpr, curve.fpr[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(curve.tpr, curve.tpr[1:]))
    assert curve.fpr[0] == 0.0
    assert curve.tpr[-1] == 1.0


def test_roc_auc_invariant_under_monotone_transform():
    S, truth = separable_instance(seed=9)
    taus = np.linspace(0.1, 0.9, 17)
    squared = ResidualSequence(S.values**2, S.frame_height, S.frame_width)
    curve = sweep_roc(S, truth, taus)
    curve_sq = sweep_roc(squared, truth, taus**2)
    assert np.array_equal(curve.fpr, curve_sq.fpr)
    assert np.array_equal(curve.tpr, curve_sq.tpr)
    assert curve.auc == curve_sq.auc


def test_roc_missing_class_errors():
    values = np.full((4, 2), 0.5)
    S = ResidualSequence(values, 2, 2)
    none_true = ForegroundMaskSequence(np.zeros((2, 2, 2), dtype=bool), tau=None)
    all_true = ForegroundMaskSequence(np.ones((2, 2, 2), dtype=bool), tau=None)
    with pytest.raises(ValueError, match="foreground"):
        sweep_roc(S, none_true)
    with pytest.raises(ValueError, match="background"):
        sweep_roc(S, all_true)


def test_roc_needs_two_thresholds():
    S, truth = separable_instance(seed=2)
    with pytest.raises(ValueError):
        sweep_roc(S, truth, [0.5])


# ---------------------------------------------------------------- best F

def sweep_best_f(S, truth, taus, kernel=1):
    return best_f_from_counts(taus, sweep_counts(S, truth, taus, kernel)[1])


def test_best_f_single_tau():
    S, truth = separable_instance(seed=4)
    tau, f = sweep_best_f(S, truth, [0.5])
    assert tau == 0.5
    assert f == pytest.approx(1.0)


def test_best_f_perfect_instance():
    S, truth = separable_instance(seed=6)
    tau, f = sweep_best_f(S, truth, tau_grid(float(S.values.max())))
    assert f == pytest.approx(1.0)
    assert 0.35 <= tau <= 0.6


def test_best_f_tie_takes_smallest_tau():
    values = np.array([[0.9, 0.9], [0.1, 0.1]])
    S = ResidualSequence(values, 2, 1)
    truth = ForegroundMaskSequence(
        np.array([[[True], [False]], [[True], [False]]]), tau=None
    )
    tau, f = sweep_best_f(S, truth, [0.2, 0.5, 0.8])
    assert f == pytest.approx(1.0)
    assert tau == 0.2


def test_best_f_of_no_taus():
    assert best_f_from_counts([], np.zeros((0, 4), dtype=np.int64)) == (0.0, -1.0)


# ---------------------------------------------------------------- sweep counts

def loop_counts(S, truth, taus, kernel):
    """Reference: threshold, median-filter frame by frame, count, per tau."""
    rows = []
    for tau in taus:
        masks = threshold_mask(S, float(tau)).masks
        if kernel > 1:
            masks = np.stack([median_filter(frame, kernel) for frame in masks])
        c = confusion(masks_of(masks), truth)
        rows.append((c.tp, c.fp, c.tn, c.fn))
    return np.array(rows, dtype=np.int64).reshape(len(rows), 4)


# Few distinct levels, shared by residuals and thresholds, so values equal to
# a threshold and duplicate thresholds are common.
LEVELS = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def sweep_instances(draw):
    t, h, w = draw(st.integers(1, 3)), draw(st.integers(1, 7)), draw(st.integers(1, 7))
    values = draw(arrays(np.float64, (h * w, t), elements=LEVELS))
    fill = draw(st.sampled_from(["random", "all", "none"]))
    if fill == "random":
        truth = draw(arrays(np.bool_, (t, h, w)))
    else:
        truth = np.full((t, h, w), fill == "all")
    taus = draw(st.lists(LEVELS | st.floats(0.0, 1.5), max_size=8))
    kernel = draw(st.sampled_from([1, 3, 5]))
    return ResidualSequence(values, h, w), masks_of(truth), taus, kernel


@settings(deadline=None, max_examples=300)
@given(sweep_instances())
def test_sweep_counts_equal_per_threshold_loop(instance):
    S, truth, taus, kernel = instance
    raw, counts = sweep_counts(S, truth, taus, kernel)
    assert raw.dtype == counts.dtype == np.int64
    assert np.array_equal(raw, loop_counts(S, truth, taus, 1))
    assert np.array_equal(counts, loop_counts(S, truth, taus, kernel))


@settings(deadline=None, max_examples=100)
@given(sweep_instances())
def test_best_f_equals_per_threshold_loop(instance):
    S, truth, taus, kernel = instance
    best_tau, best_f = 0.0, -1.0
    unique = np.unique(taus)
    for tau, row in zip(unique, loop_counts(S, truth, unique, kernel).tolist()):
        f = rates(ConfusionCounts(*row))["f_measure"]
        if f > best_f:
            best_tau, best_f = float(tau), f
    assert sweep_best_f(S, truth, taus, kernel) == (best_tau, best_f)


@pytest.mark.parametrize("kernel", [3, 5, 7])
@pytest.mark.parametrize("shape", [(4, 1, 1), (3, 2, 3), (2, 6, 9), (3, 11, 8)])
@pytest.mark.parametrize("tied", [False, True])
def test_window_medians_equal_scipy_median_filter(kernel, shape, tied):
    # 1x1 frames, frames smaller than every kernel, and larger ones; tied
    # values take one of four levels.
    frames = np.random.default_rng(kernel * sum(shape)).uniform(size=shape)
    if tied:
        frames = np.round(frames * 3) / 3
    got = evaluation._window_medians(frames, kernel)
    expected = scipy.ndimage.median_filter(frames, size=(1, kernel, kernel), mode="nearest")
    assert got.shape == expected.shape
    assert np.ascontiguousarray(got).tobytes() == expected.tobytes()


@pytest.mark.parametrize("kernel", [3, 5, 7, 9])
@pytest.mark.parametrize("shape", [(4, 1, 1), (3, 2, 3), (2, 6, 9), (3, 11, 8)])
@pytest.mark.parametrize("dtype", [np.float64, np.uint8, np.uint16])
def test_window_medians_of_ranks_equal_scipy_and_partition(kernel, shape, dtype):
    # Rank frames take few levels, so most windows hold ties; the uint16
    # ones reach past the uint8 range.
    rng = np.random.default_rng(kernel * sum(shape))
    top = {np.float64: 1.0, np.uint8: 4, np.uint16: 300}[dtype]
    frames = (rng.uniform(size=shape) * top).astype(dtype)
    got = evaluation._window_medians(frames, kernel)
    expected = scipy.ndimage.median_filter(frames, size=(1, kernel, kernel), mode="nearest")
    assert got.dtype == dtype
    assert np.ascontiguousarray(got).tobytes() == expected.tobytes()
    assert np.array_equal(got, window_medians_by_partition(frames, kernel))


def test_median_network_selects_the_median_of_every_zero_one_input():
    # A comparator network that takes every 0-1 input to its middle outputs
    # takes every input there (the 0-1 principle, Knuth 5.3.4): output n // 2
    # and, for an even n, n // 2 - 1, whose mean is the median. A result
    # that the network marks unread is dropped, so reading one fails.
    for n in (1, 2, 3, 4, 5, 8, 9, 10):
        inputs = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
        values = list(inputs.T.copy())
        for i, j, low, high in dmd._median_network(n):
            lo, hi = np.minimum(values[i], values[j]), np.maximum(values[i], values[j])
            values[i], values[j] = (lo if low else None), (hi if high else None)
        middle = [n // 2] if n % 2 else [n // 2 - 1, n // 2]
        assert np.array_equal(np.mean([values[i] for i in middle], axis=0),
                              np.median(inputs, axis=1))


RANK_CASES = {
    # Residuals on the tau levels themselves.
    "equal to a tau": (lambda rng, size: rng.integers(0, 5, size) / 4, [0.0, 0.25, 0.5, 0.75, 1.0]),
    "above the top tau": (lambda rng, size: rng.uniform(0.0, 2.0, size), np.linspace(0.0, 1.0, 11)),
    # A static chunk: its residual is zero and its grid spans [0, 1].
    "all-zero residual": (lambda rng, size: np.zeros(size), tau_grid(0.0)),
    "unsorted and duplicate taus": (
        lambda rng, size: rng.integers(0, 5, size) / 4, [0.5, 0.1, 0.5, 1.0, 0.1, 0.0, 0.75]),
    # Ranks up to 300 need a wider type than one byte.
    "300 taus": (lambda rng, size: rng.integers(0, 320, size) / 300, np.linspace(0, 1, 301)),
}


@pytest.mark.parametrize("case", sorted(RANK_CASES))
@pytest.mark.parametrize("kernel", [1, 3, 5])
def test_ranked_counts_equal_searchsorted_of_partition_medians(case, kernel):
    values, taus = RANK_CASES[case]
    rng = np.random.default_rng(len(case))
    h, w, n = 9, 7, 5
    S = ResidualSequence(values(rng, (h * w, n)), h, w)
    truth = masks_of(rng.uniform(size=(n, h, w)) < 0.4)
    raw, counts = sweep_counts(S, truth, taus, kernel)
    assert np.array_equal(counts, partition_sweep_counts(S, truth, taus, kernel))
    assert np.array_equal(raw, partition_sweep_counts(S, truth, taus))
    # At kernel 1 the two are one array.
    assert (raw is counts) == (kernel == 1)
    # The ranks buffer receives the window medians of the ranks, the same
    # bytes in the same type; the filtered masks they give at every tau are
    # counted.
    ranks = searchsorted_ranks(S, taus)
    expected = window_medians_by_partition(ranks, kernel) if kernel > 1 else ranks
    buffer = np.empty((n, h, w), dtype=np.min_scalar_type(len(taus)))
    assert np.array_equal(
        sweep_counts(S, truth, taus, kernel, ranks=buffer)[1], counts)
    assert buffer.dtype == expected.dtype
    assert buffer.tobytes() == np.ascontiguousarray(expected).tobytes()


def test_ranked_counts_rejects_a_bool_ranks_buffer():
    # A bool buffer would silently truncate every rank above 1 to 1.
    rng = np.random.default_rng(0)
    S = ResidualSequence(rng.uniform(size=(63, 5)), 9, 7)
    truth = masks_of(rng.uniform(size=(5, 9, 7)) < 0.4)
    with pytest.raises(ValueError, match="ranks must be uint8"):
        sweep_counts(S, truth, tau_grid(1.0), 3, ranks=np.zeros((5, 9, 7), bool))


@settings(deadline=None, max_examples=200)
@given(
    taus=st.one_of(
        st.builds(lambda top, n: np.linspace(0.0, top or 1.0, n),
                  st.floats(0.0, 10.0), st.integers(2, 300)),
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=300).map(sorted),
        st.lists(st.sampled_from([0.0, 0.1, 0.25, 1.0]), min_size=1, max_size=300).map(sorted),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_rank_equals_searchsorted(taus, seed):
    # Even grids (a zero top spans [0, 1]), uneven ones with subnormal or
    # tied taus, and 256+ taus; values on a tau, one step either side of
    # one, zero, and above the top tau.
    taus = np.asarray(taus, dtype=np.float64)
    rng = np.random.default_rng(seed)
    on = rng.choice(taus, 100)
    values = np.concatenate([
        rng.uniform(0.0, 1.5 * taus[-1] + 1e-3, 200), on, np.nextafter(on[:40], np.inf),
        np.nextafter(on[40:80], 0.0), np.zeros(19), [2.0 * taus[-1] + 1.0],
    ]).reshape(20, 20)
    expected = np.searchsorted(taus, values, side="left")
    assert np.array_equal(evaluation._rank(values, taus), expected)


@pytest.mark.parametrize("kernel", [1, 3, 5])
@pytest.mark.parametrize("block_frames", [1, 2, 7])
def test_sweep_counts_in_frame_blocks_equal_per_threshold_loop(monkeypatch, kernel, block_frames):
    # Blocks of 1 frame, 2 frames with a one-frame tail, and all 7 frames:
    # a frame's network holds kernel**2 one-byte ranks and an intp key per pixel.
    rng = np.random.default_rng(kernel + block_frames)
    h, w = 5, 6
    S = ResidualSequence(np.round(rng.uniform(size=(h * w, 7)) * 4) / 4, h, w)
    truth = masks_of(rng.uniform(size=(7, h, w)) < 0.3)
    taus = [0.0, 0.25, 0.3, 0.5, 0.5, 1.0]
    frame_bytes = h * w * (kernel * kernel + np.dtype(np.intp).itemsize)
    monkeypatch.setattr(dmd, "BLOCK_BYTES", block_frames * frame_bytes)
    assert np.array_equal(sweep_counts(S, truth, taus, kernel)[1],
                          loop_counts(S, truth, taus, kernel))


@pytest.mark.parametrize("m, n", [(3072, 100), (76800, 200)])
def test_unfiltered_sweep_ranks_within_the_window_block(m, n):
    # At kernel 1 the sweep's scratch is its ranking blocks alone, which
    # hold a float64 guess, an intp rank and two bool masks per entry: 2.25
    # budgets when sized as one intp each.
    rng = np.random.default_rng(m)
    S = ResidualSequence(rng.uniform(size=(m, n)), 1, m)
    truth = masks_of(np.zeros((n, 1, m)))
    tracemalloc.start()
    try:
        sweep_counts(S, truth, tau_grid(1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * dmd.BLOCK_BYTES


@pytest.mark.parametrize("kernel", [1, 3])
def test_sweep_counts_scratch_is_bounded_by_the_window_block(kernel):
    # A 64x64x200 chunk's residual is 6.5 MB, and the sweep once held a
    # filtered copy and an int64 rank of it. Its scratch is now a few
    # blocks of BLOCK_BYTES, plus, when filtered, the chunk's one-byte ranks
    # (0.8 MB here).
    rng = np.random.default_rng(kernel)
    S = ResidualSequence(rng.uniform(size=(64 * 64, 200)), 64, 64)
    truth = masks_of(rng.uniform(size=(200, 64, 64)) < 0.1)
    taus = tau_grid(1.0)
    tracemalloc.start()
    try:
        sweep_counts(S, truth, taus, kernel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * dmd.BLOCK_BYTES


def test_sweep_counts_rejects_mismatched_truth_and_even_kernel():
    S = ResidualSequence(np.zeros((4, 2)), 2, 2)
    with pytest.raises(ValueError, match="shapes differ"):
        sweep_counts(S, masks_of(np.zeros((2, 2, 3))), [0.5])
    with pytest.raises(ValueError, match="odd"):
        sweep_counts(S, masks_of(np.zeros((2, 2, 2))), [0.5], kernel=2)
    with pytest.raises(ValueError, match="< 2\\*\\*32"):
        sweep_counts(S, masks_of(np.zeros((2, 2, 2))), [0.5], kernel=2**32 + 1)


# ---------------------------------------------------------------- csv + sweep

def test_default_taus_span_residual_range():
    S = ResidualSequence(np.linspace(0, 0.8, 8).reshape(4, 2), 2, 2)
    taus = tau_grid(float(S.values.max()))
    assert taus[0] == 0.0
    assert taus[-1] == pytest.approx(0.8)
    assert len(taus) == evaluation.TAU_GRID_SIZE == 51
    # an all-zero residual still gets a grid of distinct thresholds
    assert np.array_equal(tau_grid(0.0), np.linspace(0.0, 1.0, 51))


def test_csv_round_trips(tmp_path):
    S, truth = separable_instance(seed=8)
    curve = sweep_roc(S, truth, np.linspace(0.1, 0.9, 9))
    roc_path = tmp_path / "roc.csv"
    write_roc_csv(str(roc_path), curve)
    text = roc_path.read_text().strip().splitlines()
    assert text[0] == "tau,one_minus_specificity,recall"
    assert text[-1].startswith("# auc=")
    assert float(text[-1].split("=")[1]) == curve.auc

    c = confusion(truth, truth)
    metrics_path = tmp_path / "metrics.csv"
    write_metrics_csv(str(metrics_path), [0.5], [[c.tp, c.fp, c.tn, c.fn]])
    with open(metrics_path) as fh:
        parsed = list(csv.DictReader(fh))
    assert parsed[0]["tau"] == "0.5"
    assert parsed[0]["recall"] == "1.0"
    assert parsed[0]["fp"] == "0"
