import tracemalloc

import numpy as np
import pytest

from helpers import (
    batch_of,
    frame_groups,
    keyed_estimate_crosstalk,
    neighbor_mask_pairs,
    oracle_estimate_accidentals,
    oracle_estimate_crosstalk,
    oracle_locus_distance,
    oracle_normalize,
    oracle_offset_lookup,
    oracle_subtract_accidentals,
    pair_list_accumulator,
    quadratic_accumulate,
    quadruple_loop_projections,
    random_batch,
    save_older_corrected,
    symmetric_accumulator,
)
from spadcorr import arraystore, correlator
from spadcorr.correlator import (
    CorrectedG2,
    CorrelationAccumulator,
    accumulate,
    correct_crosstalk,
    estimate_accidentals,
    estimate_crosstalk,
    linear_to_pixel,
    mask_neighbors,
    normalize,
    project_axes,
    project_sum_diff,
    subtract_accidentals,
)
from spadcorr.errors import (
    ConfigError,
    DisjointnessViolation,
    EmptyAccumulator,
    InsufficientMask,
    InvariantViolation,
    MalformedFrame,
    OutOfRange,
    WindowTooLarge,
)
from spadcorr.sensor import (
    CrosstalkMap,
    FrameBatch,
    SensorConfig,
    simulate_frames,
)

# triangular occupancy of the default 255-bin frame
POS_MASS = sum(255 - d for d in range(1, 11))            # dt in [1, 10]
BOTH_MASS = 255 + 2 * POS_MASS                           # dt in [-10, 10]


def blank_corrected(n_x=32, n_y=32, flags=("raw",), **kw):
    n_pix = n_x * n_y
    fields = dict(values=np.zeros((n_pix, n_pix)), g1=np.zeros(n_pix),
                  flags=flags, n_x=n_x, n_y=n_y, bins_per_frame=255,
                  window=10, shift=20, n_frames=1_000_000,
                  mapping_mode="unspecified")
    fields.update(kw)
    return CorrectedG2(**fields)


def blank_acc(n_x=32, n_y=32, n_frames=1_000_000):
    return CorrelationAccumulator(n_x=n_x, n_y=n_y, bins_per_frame=255,
                                  window=10, shift=20, n_frames=n_frames)


def block_offset_rate(corr, dx, dy, inner=29):
    """Mean pair rate per single at one pixel offset, estimator-style."""
    n_x, n_y = corr.n_x, corr.n_y
    lo_x = (n_x - inner) // 2
    lo_y = (n_y - inner) // 2
    vals = corr.values.reshape(n_y, n_x, n_y, n_x)
    g1 = corr.g1.reshape(n_y, n_x)
    xs = np.arange(lo_x, lo_x + inner)
    ys = np.arange(lo_y, lo_y + inner)
    tx, ty = xs + dx, ys + dy
    okx = (tx >= 0) & (tx < n_x)
    oky = (ty >= 0) & (ty < n_y)
    sy = ys[oky][:, None]
    sx = xs[okx][None, :]
    tyk = ty[oky][:, None]
    txk = tx[okx][None, :]
    norm = float(g1[np.ix_(ys, xs)].sum())
    return float(vals[sy, sx, tyk, txk].sum()) / norm


class TestLinearIndex:
    def test_corners_and_midpoints(self):
        assert linear_to_pixel(37) == (5, 2)
        assert linear_to_pixel(1) == (1, 1)
        assert linear_to_pixel(1024) == (32, 32)

    def test_round_trip_all_pixels(self):
        lin = np.arange(1, 1025)
        px, py = linear_to_pixel(lin)
        np.testing.assert_array_equal(px + 32 * (py - 1), lin)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            linear_to_pixel(0)
        with pytest.raises(OutOfRange):
            linear_to_pixel(1025)


def checked_accumulate(batches, **kw):
    """accumulate(batches, **kw), its pair list, derived tensors, singles
    and dt histogram first required to equal the quadratic loop's over the
    same frames."""
    acc = accumulate(batches, **kw)
    batches = [batches] if isinstance(batches, FrameBatch) else batches
    whole = FrameBatch(
        start_frame=batches[0].start_frame,
        n_frames=sum(b.n_frames for b in batches),
        **{name: np.concatenate([getattr(b, name) for b in batches])
           for name in ("frame_ids", "pixels", "tdc")})
    ref = quadratic_accumulate(
        whole, kw.get("n_x", 32), kw.get("n_y", 32),
        kw.get("bins_per_frame", 255), kw.get("window", 10),
        kw.get("shift", 20))
    assert acc.n_frames == ref.n_frames
    for name in ("pair_keys", "pair_counts", "g2", "g2_shifted", "g2_later",
                 "g1", "dt_hist"):
        assert getattr(acc, name).dtype == np.int64, name
        np.testing.assert_array_equal(getattr(acc, name), getattr(ref, name),
                                      err_msg=name)
    return acc


class TestAccumulate:
    def test_two_events_inside_and_outside_window(self):
        frame = batch_of((0, [10, 12], [10, 12]))
        acc = checked_accumulate([frame], window=10, shift=20)
        assert acc.g2[9, 11] == 1
        assert acc.g2[11, 9] == 1
        assert acc.g2.sum() == 2
        # the pair list keeps the pair at dt = -2 either way
        assert acc.pair_keys.tolist() == [(9 * 1024 + 11) * 61 - 2 + 30]
        acc = checked_accumulate([frame], window=1, shift=20)
        assert acc.g2[9, 11] == 0
        assert acc.g2.sum() == 0
        assert acc.pair_keys.tolist() == [(9 * 1024 + 11) * 43 - 2 + 21]

    def test_three_events_count_all_pairs(self):
        frame = batch_of((0, [1, 2, 3], [0, 5, 9]))
        acc = checked_accumulate([frame], window=10, shift=20)
        assert acc.g2.sum() == 6
        assert np.all(np.diag(acc.g2) == 0)

    def test_later_counts_tag_the_second_detection(self):
        frame = batch_of((0, [4, 9], [7, 3]))     # pixel 9 fired first
        acc = checked_accumulate([frame], window=10, shift=20)
        assert acc.g2_later[8, 3] == 1
        assert acc.g2_later[3, 8] == 0
        tie = batch_of((0, [4, 9], [5, 5]))       # equal bins carry no order
        acc = checked_accumulate([tie], window=10, shift=20)
        assert acc.g2_later.sum() == 0
        assert acc.g2[3, 8] == 1

    def test_shifted_window_sees_displaced_pairs(self):
        frame = batch_of((0, [7, 8], [0, 20]))
        acc = checked_accumulate([frame], window=5, shift=20)
        assert acc.g2.sum() == 0
        assert acc.g2_shifted[6, 7] == 1
        assert acc.g2_shifted[7, 6] == 1

    def test_dt_histogram_is_symmetric_and_complete(self):
        rng = np.random.default_rng(31)
        batch = random_batch(rng, 200, 1024, 255)
        acc = checked_accumulate(batch)
        np.testing.assert_array_equal(acc.dt_hist, acc.dt_hist[::-1])
        pairs = sum(len(pix) * (len(pix) - 1)
                    for _, pix, _ in frame_groups(batch))
        assert acc.dt_hist.sum() == pairs

    def test_matches_quadratic_reference(self):
        rng = np.random.default_rng(32)
        for n_x, n_y, bins in ((4, 4, 255), (32, 32, 255), (8, 4, 64)):
            n_pix = n_x * n_y
            for batch in (random_batch(rng, 30, n_pix, bins),
                          # runs longer than 8 events, up to the whole array
                          random_batch(rng, 30, n_pix, bins, max_events=40,
                                       p_empty=0),
                          random_batch(rng, 30, n_pix, bins, max_events=1),
                          batch_of(n_frames=5)):
                self._check_against_quadratic(batch, n_x, n_y, bins)

    @pytest.mark.parametrize("n_x,n_y,batch", [
        # the densest frame is the batch's last, so its pairs reach the
        # batch end at every lag
        (32, 32, batch_of((0, [5, 9], [3, 40]), (2, [1, 2, 3], [0, 9, 30]),
                          (3, [7], [2]),
                          (6, list(range(100, 1100, 100)),
                           [0, 4, 9, 15, 20, 22, 29, 31, 100, 254]))),
        # one frame holding every pixel of a 4x4 sensor
        (4, 4, batch_of((0, list(range(1, 17)),
                         [(37 * k) % 255 for k in range(16)]))),
        # at most one event in every frame: no pair at any lag
        (32, 32, batch_of((0, [4], [10]), (1, [4], [12]), (3, [1024], [0]),
                          n_frames=6)),
    ], ids=["densest-last", "full-frame", "singles"])
    def test_lag_edges_match_quadratic_reference(self, n_x, n_y, batch):
        ref = self._check_against_quadratic(batch, n_x, n_y, 255)
        assert ref.dt_hist.sum() == sum(len(pix) * (len(pix) - 1)
                                        for _, pix, _ in frame_groups(batch))

    def test_dense_batch_memory_is_bounded(self):
        """A dense 65536-frame batch: bounded pair temporaries.

        16 events in every frame make 7.9M same-frame pairs; gathered at
        once they would peak near 490 MB (about 62 B per pair). Lag by lag
        the peak is the O(events) columns plus one lag's pairs, at most
        one per event.
        """
        n_frames, per = 65536, 16
        rng = np.random.default_rng(37)
        # one pixel from each block of 64: distinct and ascending per frame
        pixels = 64 * np.arange(per) + rng.integers(0, 64, (n_frames, per))
        batch = FrameBatch(
            start_frame=0, n_frames=n_frames,
            frame_ids=np.repeat(np.arange(n_frames, dtype=np.int64), per),
            pixels=(pixels + 1).astype(np.uint16).ravel(),
            tdc=rng.integers(0, 255, n_frames * per).astype(np.uint8))
        acc = CorrelationAccumulator(n_x=32, n_y=32, bins_per_frame=255,
                                     window=10, shift=20)
        tracemalloc.start()
        try:
            acc.add_batch(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 80e6
        assert acc.dt_hist.sum() == n_frames * per * (per - 1)
        # too many pairs for the quadratic loop: the pair list and the
        # derived g2 hold the pairs dt_hist counts inside their windows
        # (dt_hist counts both orders)
        kept = acc.dt_hist[254 - 30:255 + 30].sum()
        assert 2 * acc.pair_counts.sum() == kept
        assert acc.g2.sum() == acc.dt_hist[254 - 10:255 + 10].sum()

    @staticmethod
    def _check_against_quadratic(batch, n_x, n_y, bins, window=10,
                                 shift=20):
        checked_accumulate(batch, window=window, shift=shift, n_x=n_x,
                           n_y=n_y, bins_per_frame=bins)
        return quadratic_accumulate(batch, n_x, n_y, bins, window, shift)

    @pytest.mark.parametrize("bins,window,shift", [
        (255, 3, 40), (64, 5, 20),
        # shift + window reaches the largest |dt|: nothing is pruned
        (64, 3, 60), (64, 10, 60)])
    def test_pruned_pairs_match_quadratic_reference(self, bins, window,
                                                    shift):
        rng = np.random.default_rng(37)
        batch = random_batch(rng, 40, 1024, bins, max_events=40, p_empty=0)
        ref = self._check_against_quadratic(batch, 32, 32, bins, window,
                                            shift)
        reach = shift + window
        if reach < bins - 1:
            # pairs on both sides of the pruning edge
            assert ref.dt_hist[bins - 1 + reach] > 0
            assert ref.dt_hist[bins + reach] > 0
        else:
            # pairs at the largest |dt|, which the shifted window keeps
            assert ref.dt_hist[-1] > 0
        assert np.count_nonzero(ref.g2_shifted) > 0

    def test_batch_split_invisible(self, reference_model, far_mapping):
        cfg = SensorConfig(dark_rate_hz=10000.0)
        batches = list(simulate_frames(reference_model, far_mapping, cfg,
                                       3 * 65536, 0.3, seed=34))
        # the split must cut the stream somewhere
        assert len(batches) >= 2
        whole = FrameBatch(
            start_frame=batches[0].start_frame,
            n_frames=sum(b.n_frames for b in batches),
            **{name: np.concatenate([getattr(b, name) for b in batches])
               for name in ("frame_ids", "pixels", "tdc")})
        a = accumulate(batches, mapping_mode="far")
        b = checked_accumulate(whole, mapping_mode="far")
        assert a.n_frames == b.n_frames == 3 * 65536
        assert a.g2.sum() > 0
        for name in ("pair_keys", "pair_counts", "g2", "g2_shifted",
                     "g2_later", "g1", "dt_hist"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("n_x,n_y,n_frames", [(32, 32, 300),
                                                  (2, 2, 3000)])
    def test_one_batch_or_three_save_the_same_bytes(self, tmp_path, n_x,
                                                    n_y, n_frames):
        # on 2x2 pixels nearly every pair repeats a key, so the merges add
        # counts to listed keys as well as insert new ones
        rng = np.random.default_rng(n_frames)
        batch = random_batch(rng, n_frames, n_x * n_y, 64, max_events=4,
                             p_empty=0.1)
        cuts = [0, n_frames // 7, n_frames // 2, n_frames]
        parts = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            sel = (batch.frame_ids >= lo) & (batch.frame_ids < hi)
            parts.append(FrameBatch(
                start_frame=lo, n_frames=hi - lo,
                frame_ids=batch.frame_ids[sel], pixels=batch.pixels[sel],
                tdc=batch.tdc[sel]))
        kw = dict(n_x=n_x, n_y=n_y, bins_per_frame=64, window=3, shift=9)
        one = checked_accumulate(batch, **kw)
        three = checked_accumulate(parts, **kw)
        assert one.pair_counts.max() > (1 if n_x == 2 else 0)
        np.testing.assert_array_equal(one.pair_keys, three.pair_keys)
        np.testing.assert_array_equal(one.pair_counts, three.pair_counts)
        one.save(tmp_path / "one.blk")
        three.save(tmp_path / "three.blk")
        assert (tmp_path / "one.blk").read_bytes() \
            == (tmp_path / "three.blk").read_bytes()

    def test_cached_tensors_follow_later_batches(self):
        # a tensor read before the last batch is derived again after it
        acc = accumulate(batch_of((0, [1, 2], [0, 1]), n_frames=2))
        assert acc.g2[0, 1] == 1
        acc.add_batch(batch_of((1, [1, 2], [3, 2]), n_frames=2))
        ref = quadratic_accumulate(
            batch_of((0, [1, 2], [0, 1]), (1, [1, 2], [3, 2])), 32, 32, 255,
            10, 20)
        for name in ("g2", "g2_shifted", "g2_later", "pair_keys",
                     "pair_counts"):
            np.testing.assert_array_equal(getattr(acc, name),
                                          getattr(ref, name))
        assert acc.g2[0, 1] == acc.g2[1, 0] == 2
        assert acc.pair_counts.tolist() == [1, 1]

    def test_window_and_shift_validation(self):
        with pytest.raises(WindowTooLarge):
            accumulate([], window=255, shift=300)
        with pytest.raises(DisjointnessViolation):
            accumulate([], window=10, shift=10)
        # a displaced window wholly beyond the frame would stay empty
        with pytest.raises(WindowTooLarge, match="beyond the frame"):
            accumulate(batch_of((0, [1, 2], [0, 5])), window=10, shift=300)
        # its near edge on the frame's largest |dt| is still inside
        acc = checked_accumulate(batch_of((0, [1, 2], [0, 254])),
                                 window=10, shift=264)
        assert acc.g2_shifted[0, 1] == acc.g2_shifted[1, 0] == 1

    def test_only_frame_batches_accumulate(self):
        # the contract of a FrameBatch itself is tested in test_sensor.py
        with pytest.raises(MalformedFrame, match="cannot accumulate str"):
            accumulate(["not a frame"])
        good = batch_of((0, [1], [0]))
        with pytest.raises(MalformedFrame, match="cannot accumulate None"):
            accumulate([good, None, good])

    def test_pixels_beyond_the_uint16_index_refused(self):
        # checked before the (n_pix, n_pix) tensors are allocated
        with pytest.raises(ConfigError, match="65535"):
            CorrelationAccumulator(n_x=256, n_y=257, bins_per_frame=255,
                                   window=10, shift=20)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(35)
        acc = checked_accumulate(random_batch(rng, 40, 1024, 255),
                                 mapping_mode="near")
        path = tmp_path / "acc.blk"
        acc.save(path)
        back = CorrelationAccumulator.load(path)
        assert back.n_frames == acc.n_frames
        assert back.mapping_mode == "near"
        for name in ("pair_keys", "pair_counts", "g2", "g2_shifted",
                     "g2_later", "g1", "dt_hist"):
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(acc, name))
        # the stages derive their tensors from the pair list alone
        back.g2[:] = 7
        np.testing.assert_array_equal(normalize(back).values,
                                      normalize(acc).values)


class TestNormalize:
    def test_rate_scaling(self):
        # 500 pairs of pixels 3 and 5, 200 of them with pixel 5 later
        acc = pair_list_accumulator(3, 5, [-1, 0], [200, 300],
                                    n_frames=2_000_000)
        acc.g1[3] = 1000
        corr = normalize(acc)
        assert corr.values[3, 5] == corr.values[5, 3] == 250.0
        assert np.count_nonzero(corr.values) == 2
        assert corr.values.dtype == np.float64
        assert acc.pair_counts.tolist() == [200, 300]
        assert corr.g1[3] == 500.0
        assert corr.flags == ("raw",)
        assert corr.n_frames == 2_000_000

    def test_empty_accumulator_rejected(self):
        acc = CorrelationAccumulator(n_x=4, n_y=4, bins_per_frame=255,
                                     window=10, shift=20)
        with pytest.raises(EmptyAccumulator):
            normalize(acc)


class TestAccidentals:
    def test_estimators_zero_on_silent_input(self):
        acc = CorrelationAccumulator(n_x=32, n_y=32, bins_per_frame=255,
                                     window=10, shift=20, n_frames=1000)
        for method in ("shifted_window", "g1_product"):
            est = estimate_accidentals(acc, method)
            assert est.shape == (1024, 1024)
            assert np.all(est == 0.0)

    def test_unknown_method_rejected(self):
        acc = CorrelationAccumulator(n_x=4, n_y=4, bins_per_frame=255,
                                     window=10, shift=20, n_frames=10)
        with pytest.raises(ConfigError):
            estimate_accidentals(acc, "dark_magic")

    def test_empty_accumulator_rejected(self):
        acc = CorrelationAccumulator(n_x=4, n_y=4, bins_per_frame=255,
                                     window=10, shift=20)
        with pytest.raises(EmptyAccumulator):
            estimate_accidentals(acc)

    def test_g1_product_recovers_exact_factorized_rates(self):
        acc = CorrelationAccumulator(n_x=32, n_y=32, bins_per_frame=255,
                                     window=10, shift=20,
                                     n_frames=1_000_000)
        g1 = np.where(np.arange(1024) % 2 == 0, 20, 30)
        outer = g1[:, None] * g1[None, :]
        g2 = outer // 100                 # exactly 0.01 * outer
        np.fill_diagonal(g2, 0)
        acc = symmetric_accumulator(g2, g1=g1, n_frames=1_000_000)
        est = estimate_accidentals(acc, "g1_product")
        assert est[0, 1] == pytest.approx(6.0, rel=1e-12)
        off_diag = ~np.eye(1024, dtype=bool)
        np.testing.assert_allclose(est[off_diag],
                                   0.01 * outer[off_diag], rtol=1e-9)
        assert np.all(np.diag(est) == 0.0)

    def test_g1_product_mask_guards(self, monkeypatch):
        acc = CorrelationAccumulator(n_x=32, n_y=32, bins_per_frame=255,
                                     window=10, shift=20, n_frames=1000)
        with monkeypatch.context() as m:
            m.setattr(correlator, "MASK_DISTANCE", 40)
            with pytest.raises(InsufficientMask):
                estimate_accidentals(acc, "g1_product")
        # coincidences without any singles
        acc = pair_list_accumulator(0, 1023, 0, 5, n_frames=1000)
        with pytest.raises(InsufficientMask):
            estimate_accidentals(acc, "g1_product")

    def test_estimators_unbiased_on_dark_only(self, reference_model,
                                              far_mapping):
        cfg = SensorConfig(dark_rate_hz=30000.0)
        batches = list(simulate_frames(reference_model, far_mapping, cfg,
                                       2 * 65536, 0.0, seed=36))
        acc = accumulate(batches, mapping_mode="far")
        t_counts = float(acc.g2.sum())
        s_counts = float(acc.g2_shifted.sum())
        to_counts = acc.n_frames / 1e6
        displaced = 2 * sum(255 - d for d in range(10, 31))
        c = BOTH_MASS / displaced
        for method in ("shifted_window", "g1_product"):
            est_counts = float(estimate_accidentals(acc, method).sum()) \
                * to_counts
            var = t_counts + (c * c * s_counts
                              if method == "shifted_window" else 0.0)
            assert abs(t_counts - est_counts) < 4 * np.sqrt(var), method


class TestSubtract:
    def test_arithmetic_and_flags(self):
        corr = blank_corrected()
        corr.values[3, 5] = 5.0
        corr.g1[3] = 2.0
        est = np.zeros_like(corr.values)
        est[3, 5] = 1.25
        out = subtract_accidentals(corr, est)
        assert out.values[3, 5] == 3.75
        assert out.g1[3] == 2.0     # only the values are subtracted
        assert out.flags == ("raw", "accidental_subtracted")
        # original untouched
        assert corr.flags == ("raw",)
        assert corr.values[3, 5] == 5.0

    def test_zero_estimate_is_identity(self):
        corr = blank_corrected()
        corr.values[1, 2] = 7.0
        out = subtract_accidentals(corr, np.zeros_like(corr.values))
        np.testing.assert_array_equal(out.values, corr.values)

    def test_exact_cancellation_and_negatives_kept(self):
        corr = blank_corrected()
        corr.values[1, 2] = 7.0
        corr.values[2, 1] = 7.0
        out = subtract_accidentals(corr, corr.values.copy())
        assert np.all(out.values == 0.0)
        est = np.zeros_like(corr.values)
        est[1, 2] = 9.0
        out = subtract_accidentals(corr, est)
        assert out.values[1, 2] == -2.0

    def test_shape_mismatch_rejected(self):
        corr = blank_corrected()
        with pytest.raises(ConfigError):
            subtract_accidentals(corr, np.zeros((4, 4)))


class TestEstimateCrosstalk:
    def test_zero_tensor_yields_zero_map(self):
        acc = blank_acc()
        acc.g1[:] = 100
        cmap = estimate_crosstalk(acc, "shifted_window")
        assert np.all(cmap.probabilities == 0.0)
        assert cmap.clamped_negative == 0
        assert cmap.probability(1, 0) == 0.0
        assert cmap.probability(99, 0) == 0.0

    def test_even_split_fallback_arithmetic(self):
        # 841 inner sources, one million singles, 200 echo pairs per Mframe
        # at offset (1, 0): without ordering evidence both directions get
        # half, so p(1,0) = 0.5 * 200 / 1e6. Over 841e6 frames a source's
        # 1e6 singles and 200 pairs read 1e6 / 841 and 200 / 841 per Mframe.
        y, x = np.mgrid[1:30, 1:30]
        acc = pair_list_accumulator(32 * y + x, 32 * y + x + 1, 0, 200,
                                    n_frames=841_000_000)
        acc.g1.reshape(32, 32)[1:30, 1:30] = 1_000_000
        cmap = estimate_crosstalk(acc, "shifted_window", inner_window=29)
        assert cmap.probability(1, 0) == pytest.approx(1e-4, rel=1e-9)

    def test_ordered_share_resolves_direction(self):
        # a count is 0.5 per Mframe; echoes fire after their sources, so
        # t(source) - t(echo) < 0
        y, x = np.mgrid[1:30, 1:30]
        acc = pair_list_accumulator(32 * y + x, 32 * y + x + 1, -1, 1,
                                    n_frames=2_000_000, g1=2000)
        assert acc.g2_later[33, 34] == 1 and acc.g2_later[34, 33] == 0
        cmap = estimate_crosstalk(acc, "shifted_window", inner_window=29)
        assert cmap.probability(1, 0) == pytest.approx(5e-4, rel=1e-9)
        assert cmap.probability(-1, 0) == 0.0

    def test_negative_cells_clamp_and_count(self):
        # displaced-window keys above the prompt ones (none) leave negative
        # subtracted rates at offset (0, 1)
        y, x = np.mgrid[1:30, 1:30]
        acc = pair_list_accumulator(32 * y + x, 32 * (y + 1) + x, 20, 1,
                                    g1=1000, n_frames=1_000_000)
        cmap = estimate_crosstalk(acc, "shifted_window", inner_window=29)
        assert cmap.probability(0, 1) == 0.0
        assert cmap.clamped_negative >= 1

    def test_unknown_method_refused(self):
        acc = blank_acc()
        acc.g1[:] = 100
        # a dense accidental estimate where the method goes is refused too
        for method in ("dark_magic", None, np.zeros((4, 4)),
                       np.zeros((1024, 1024))):
            with pytest.raises(ConfigError, match="unknown accidental"):
                estimate_crosstalk(acc, method)
        with pytest.raises(EmptyAccumulator):
            estimate_crosstalk(blank_acc(n_frames=0), "shifted_window")

    def test_inner_window_limits(self):
        acc = blank_acc()
        with pytest.raises(WindowTooLarge):
            estimate_crosstalk(acc, "shifted_window", inner_window=33)
        with pytest.raises(WindowTooLarge):
            estimate_crosstalk(acc, "shifted_window", inner_window=0)

    def test_map_round_trip(self, tmp_path):
        prob = np.zeros((3, 3))
        prob[2, 1] = 1e-3
        cmap = CrosstalkMap(probabilities=prob, radius=1,
                            clamped_negative=2)
        path = tmp_path / "map.blk"
        cmap.save(path)
        back = CrosstalkMap.load(path)
        assert back.radius == 1
        assert back.clamped_negative == 2
        np.testing.assert_array_equal(back.probabilities, prob)
        assert back.probability(1, 0) == 1e-3

    def test_one_way_injection_recovered_directionally(
            self, reference_model, far_mapping):
        cfg = SensorConfig(dark_rate_hz=30000.0)
        xt = CrosstalkMap.from_dict({(1, 0): 1e-3, (0, 1): 1e-3})
        batches = simulate_frames(reference_model, far_mapping, cfg,
                                  1_000_000, 0.0, crosstalk=xt, seed=37)
        acc = accumulate(batches, mapping_mode="far")
        estimate = estimate_accidentals(acc)
        cmap = estimate_crosstalk(acc, "shifted_window", inner_window=29)
        assert cmap.probability(1, 0) == pytest.approx(1e-3, rel=0.2)
        assert cmap.probability(0, 1) == pytest.approx(1e-3, rel=0.2)
        assert cmap.probability(-1, 0) < 1e-4
        assert cmap.probability(0, -1) < 1e-4
        assert cmap.probability(1, 1) < 1e-4

        fixed = correct_crosstalk(
            subtract_accidentals(normalize(acc), estimate), cmap)
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            assert abs(block_offset_rate(fixed, dx, dy)) < 1e-4, (dx, dy)


class TestCorrectCrosstalk:
    def test_zero_map_is_identity(self):
        corr = blank_corrected(flags=("raw", "accidental_subtracted"))
        corr.values[5, 6] = 3.0
        cmap = CrosstalkMap(probabilities=np.zeros((3, 3)), radius=1)
        out = correct_crosstalk(corr, cmap)
        np.testing.assert_array_equal(out.values, corr.values)
        assert out.flags[-1] == "crosstalk_corrected"

    def test_symmetric_echo_arithmetic(self):
        corr = blank_corrected(flags=("raw", "accidental_subtracted"))
        corr.g1[:] = 1e4
        s = 10 + 32 * (10 - 1) - 1
        t = 11 + 32 * (10 - 1) - 1
        corr.values[s, t] = 10.0
        corr.values[t, s] = 10.0
        prob = np.zeros((3, 3))
        prob[2, 1] = 1e-4      # p(+1, 0)
        prob[0, 1] = 1e-4      # p(-1, 0)
        cmap = CrosstalkMap(probabilities=prob, radius=1)
        out = correct_crosstalk(corr, cmap)
        assert out.values[s, t] == pytest.approx(8.0)
        assert out.values[t, s] == pytest.approx(8.0)


class TestMaskNeighbors:
    def test_radius_zero_is_identity(self):
        corr = blank_corrected(flags=("raw", "accidental_subtracted"))
        corr.values[:] = 1.0
        out = mask_neighbors(corr, radius=0)
        np.testing.assert_array_equal(out.values, corr.values)
        assert not out.masked.any()
        assert out.mask_radius == 0
        assert out.flags[-1] == "neighbor_masked"

    def test_radius_one_masks_eight_neighbors(self):
        corr = blank_corrected(flags=("raw", "accidental_subtracted"))
        corr.values[:] = 1.0
        out = mask_neighbors(corr, radius=1)
        # ordered neighbour pairs on a 32x32 grid:
        # 4 corners x 3 + 120 edge pixels x 5 + 900 inner x 8
        assert out.masked.sum() == 4 * 3 + 120 * 5 + 900 * 8
        assert np.all(out.values[out.masked] == 0.0)
        assert np.all(out.values[~out.masked] == 1.0)

    def test_matches_brute_force_pairs(self):
        corr = blank_corrected(6, 5, flags=("raw", "accidental_subtracted"))
        got = mask_neighbors(corr, 2).masked
        want = np.zeros((30, 30), dtype=bool)
        for l1 in range(30):
            x1, y1 = l1 % 6, l1 // 6
            for l2 in range(30):
                x2, y2 = l2 % 6, l2 // 6
                d = max(abs(x1 - x2), abs(y1 - y2))
                want[l1, l2] = 0 < d <= 2
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(neighbor_mask_pairs(6, 5, 2), want)

    def test_negative_radius_rejected(self):
        with pytest.raises(ConfigError):
            mask_neighbors(
                blank_corrected(flags=("raw", "accidental_subtracted")), -1)

    def test_allowed_after_crosstalk_stage(self):
        corr = blank_corrected(flags=("raw", "accidental_subtracted",
                                      "crosstalk_corrected"))
        out = mask_neighbors(corr, radius=1)
        assert out.flags == ("raw", "accidental_subtracted",
                             "crosstalk_corrected", "neighbor_masked")


ACC = "accidental_subtracted"
XT = "crosstalk_corrected"
MASK = "neighbor_masked"
STAGES = {
    "subtract": lambda corr: subtract_accidentals(
        corr, np.zeros_like(corr.values)),
    "crosstalk": lambda corr: correct_crosstalk(
        corr, CrosstalkMap(np.full((3, 3), 1e-3), 1)),
    "mask": lambda corr: mask_neighbors(corr, 1),
}


class TestStageOrder:
    """CorrectedG2.__post_init__ is the one check of the chain's order: a
    stage applied out of order fails in the replace() that appends its
    flag, with InvariantViolation, and leaves its input as it was."""

    @pytest.mark.parametrize("stage, flags", [
        ("subtract", ("raw", ACC)),
        ("subtract", ("raw", ACC, XT)),
        ("crosstalk", ("raw", ACC, XT)),
        ("mask", ("raw", ACC, MASK)),
        ("crosstalk", ("raw", ACC, MASK)),
        ("crosstalk", ("raw",)),
        ("mask", ("raw",)),
    ], ids=["subtract-repeated", "subtract-after-crosstalk",
            "crosstalk-repeated", "mask-repeated", "crosstalk-after-mask",
            "crosstalk-without-subtraction", "mask-without-subtraction"])
    def test_illegal_order_raises_and_leaves_input(self, stage, flags):
        rng = np.random.default_rng(len(flags))
        corr = blank_corrected(4, 4, flags=flags,
                               values=rng.normal(size=(16, 16)),
                               g1=rng.random(16),
                               mask_radius=1 if MASK in flags else None)
        before = (corr.values.copy(), corr.g1.copy(), corr.masked.copy())
        with pytest.raises(InvariantViolation, match="correction flags"):
            STAGES[stage](corr)
        assert corr.flags == flags
        assert corr.mask_radius == (1 if MASK in flags else None)
        for now, then in zip((corr.values, corr.g1, corr.masked), before):
            assert now.tobytes() == then.tobytes()


class TestProjections:
    def test_single_entry_placement(self):
        n_x = n_y = 32
        values = np.zeros((1024, 1024))
        l1 = 5 + 32 * (2 - 1) - 1
        l2 = 9 + 32 * (30 - 1) - 1
        values[l1, l2] = 3.0
        g2x, g2y = project_axes(values, n_x, n_y)
        assert g2x[4, 8] == 3.0
        assert g2x.sum() == 3.0
        assert g2y[1, 29] == 3.0
        sum_map, diff_map = project_sum_diff(values, n_x, n_y)
        # px1+px2 = 14 -> index 12; py1+py2 = 32 -> index 30
        assert sum_map[12, 30] == 3.0
        # px1-px2 = -4 -> index 27; py1-py2 = -28 -> index 3
        assert diff_map[27, 3] == 3.0

    def test_mass_conserved(self):
        rng = np.random.default_rng(38)
        values = rng.random((1024, 1024))
        g2x, g2y = project_axes(values, 32, 32)
        sum_map, diff_map = project_sum_diff(values, 32, 32)
        assert g2x.sum() == pytest.approx(values.sum())
        assert g2y.sum() == pytest.approx(values.sum())
        assert sum_map.sum() == pytest.approx(values.sum())
        assert diff_map.sum() == pytest.approx(values.sum())

    def test_matches_quadruple_loops(self):
        rng = np.random.default_rng(39)
        n_x, n_y = 5, 4
        values = rng.random((20, 20))
        g2x, g2y = project_axes(values, n_x, n_y)
        sum_map, diff_map = project_sum_diff(values, n_x, n_y)
        rx, ry, rs, rd = quadruple_loop_projections(values, n_x, n_y)
        np.testing.assert_allclose(g2x, rx, rtol=1e-12)
        np.testing.assert_allclose(g2y, ry, rtol=1e-12)
        np.testing.assert_allclose(sum_map, rs, rtol=1e-12)
        np.testing.assert_allclose(diff_map, rd, rtol=1e-12)


class TestLocusDistance:
    """Broadcast per-axis construction against the full-pair construction."""

    GEOMETRIES = [(32, 32), (6, 5), (5, 4), (2, 5), (1, 7), (7, 1)]

    @pytest.mark.parametrize("n_x,n_y", GEOMETRIES)
    @pytest.mark.parametrize("mode", ["near", "far", "unspecified"])
    def test_distances_and_selections_identical(self, n_x, n_y, mode):
        got = correlator._locus_distance(n_x, n_y, mode)
        want = oracle_locus_distance(n_x, n_y, mode)
        assert got.shape == want.shape
        assert got.itemsize == 1
        np.testing.assert_array_equal(got, want)
        for d in (0, 1, 2, 10, 300):
            np.testing.assert_array_equal(got >= d, want >= d)

    @pytest.mark.parametrize("n_x,n_y", GEOMETRIES)
    def test_neighbor_masks_identical(self, n_x, n_y):
        # masked is derived from mask_radius: no cell without a mask, else
        # the full-pair oracle's band, up to a radius beyond the sensor,
        # and exactly the cells mask_neighbors zeroes
        rng = np.random.default_rng(n_x * n_y)
        n_pix = n_x * n_y
        corr = blank_corrected(n_x, n_y,
                               flags=("raw", "accidental_subtracted"),
                               values=rng.normal(size=(n_pix, n_pix)))
        assert corr.masked.shape == (n_pix, n_pix)
        assert not corr.masked.any()
        before = corr.values.copy()
        for radius in (0, 1, 2, 3, max(n_x, n_y) + 1):
            want = neighbor_mask_pairs(n_x, n_y, radius)
            out = mask_neighbors(corr, radius)
            np.testing.assert_array_equal(out.masked, want)
            np.testing.assert_array_equal(out.masked, out.values != before)
            assert out.values.tobytes() == np.where(
                want, 0.0, corr.values).tobytes()
            np.testing.assert_array_equal(corr.values, before)
            assert not corr.masked.any()

    @pytest.mark.parametrize("mode", ["near", "far"])
    def test_g1_product_estimate_bit_identical(self, mode, monkeypatch):
        rng = np.random.default_rng(44)
        acc = accumulate(random_batch(rng, 400, 30, 255), n_x=6, n_y=5,
                         mapping_mode=mode)
        monkeypatch.setattr(correlator, "MASK_DISTANCE", 2)
        monkeypatch.setattr(correlator, "MIN_MASK_PAIRS", 10)
        got = estimate_accidentals(acc, "g1_product")
        monkeypatch.setattr(correlator, "_locus_distance",
                            oracle_locus_distance)
        want = estimate_accidentals(acc, "g1_product")
        np.testing.assert_array_equal(got, want)


class TestOffsetKeyedCrosstalk:
    """Offset-keyed correction and estimator against the per-offset loops."""

    GEOMETRIES = [(32, 32), (5, 4), (3, 7)]
    # the estimator sums each offset in another order than the oracle;
    # bound the difference by this share of the map's largest probability
    REL_TO_PEAK = 1e-12

    def assert_maps_agree(self, got, want):
        assert got.radius == want.radius
        assert got.clamped_negative == want.clamped_negative
        np.testing.assert_array_equal(got.probabilities == 0,
                                      want.probabilities == 0)
        peak = np.abs(want.probabilities).max()
        np.testing.assert_allclose(got.probabilities, want.probabilities,
                                   rtol=0, atol=self.REL_TO_PEAK * peak)

    @staticmethod
    def random_case(n_x, n_y, radius):
        rng = np.random.default_rng(radius + 10 * n_x + n_y)
        side = 2 * radius + 1
        cmap = CrosstalkMap(probabilities=rng.normal(size=(side, side)),
                            radius=radius)
        n_pix = n_x * n_y
        corr = blank_corrected(n_x, n_y,
                               flags=("raw", "accidental_subtracted"),
                               values=rng.normal(size=(n_pix, n_pix)),
                               g1=rng.random(n_pix) + 0.1)
        return corr, cmap

    @pytest.mark.parametrize("n_x,n_y", GEOMETRIES)
    @pytest.mark.parametrize("radius", [0, 1, 4, 28])
    def test_lookup_bit_identical(self, n_x, n_y, radius):
        corr, cmap = self.random_case(n_x, n_y, radius)
        got = correct_crosstalk(corr, cmap).values
        # the echo of each pair and its transpose, added in that order
        echo = oracle_offset_lookup(cmap, n_x, n_y) * corr.g1[:, None]
        want = corr.values - (echo + echo.T)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_correction_memory_is_bounded(self):
        corr, cmap = self.random_case(32, 32, 28)
        correct_crosstalk(corr, cmap)
        tracemalloc.start()
        try:
            correct_crosstalk(corr, cmap)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # two (n_pix, n_pix) float tensors live at once, the echo and the
        # corrected values (16 MiB), plus at most 1.1 MiB of tables
        assert peak < 17.1 * 2**20

    @pytest.mark.parametrize("n_x,n_y", GEOMETRIES)
    @pytest.mark.parametrize("which", ["one", "two", "full"])
    @pytest.mark.parametrize("method", ["shifted_window", "g1_product"])
    def test_estimate_matches_oracle_on_random_tensors(self, n_x, n_y,
                                                       which, method,
                                                       monkeypatch):
        inner = {"one": 1, "two": 2, "full": min(n_x, n_y)}[which]
        rng = np.random.default_rng(n_x * n_y + inner)
        n_pix = n_x * n_y
        # the small sensors have few pairs far from the diagonal
        monkeypatch.setattr(correlator, "MASK_DISTANCE", 2)
        monkeypatch.setattr(correlator, "MIN_MASK_PAIRS", 2)
        for negative_share in (0.3, 0.5):
            # displaced-window keys whose accidental share exceeds about
            # that share of the prompt ones (g1_product's fitted products
            # exceed about half), so rates and ordered shares both carry
            # negative cells; 3e6 frames give a scale of 1/3, which rounds
            # where it is applied. Each pixel pair gets up to 475 ordered
            # pairs each way, up to 48 in one bin and up to 2000 * share /
            # ratio displaced ones (ratio about 0.53)
            a, b = np.triu_indices(n_pix, 1)
            displaced = 2000 * negative_share / 0.531
            acc = pair_list_accumulator(
                np.tile(a, 4), np.tile(b, 4),
                np.repeat([-1, 1, 0, 20], a.size),
                np.concatenate((rng.integers(0, 476, (2, a.size)).ravel(),
                                rng.integers(0, 49, a.size),
                                rng.integers(0, displaced, a.size))),
                n_x=n_x, n_y=n_y, n_frames=3_000_000,
                g1=rng.integers(1, 1000, n_pix))
            corr = oracle_subtract_accidentals(
                oracle_normalize(acc), oracle_estimate_accidentals(acc,
                                                                   method))
            assert (corr.values < 0).any() and (corr.values_later < 0).any()
            got = estimate_crosstalk(acc, method, inner)
            self.assert_maps_agree(got, oracle_estimate_crosstalk(corr, inner))
            keyed = keyed_estimate_crosstalk(acc, method, inner)
            assert got.probabilities.tobytes() == keyed.probabilities.tobytes()
            assert got.clamped_negative == keyed.clamped_negative

    @pytest.mark.parametrize("seed", [105, 7])
    def test_estimate_matches_oracle_on_characterization(
            self, reference_model, far_mapping, seed):
        cfg = SensorConfig(dark_rate_hz=30000.0)
        xt = CrosstalkMap.from_dict({(1, 0): 1e-3, (-1, 0): 1e-3,
                                     (0, 1): 1e-3, (0, -1): 1e-3})
        acc = accumulate(simulate_frames(reference_model, far_mapping, cfg,
                                         4 * 65536, 0.0, crosstalk=xt,
                                         seed=seed), mapping_mode="far")
        estimate = estimate_accidentals(acc)
        got = estimate_crosstalk(acc, "shifted_window", inner_window=29)
        corr = oracle_subtract_accidentals(oracle_normalize(acc), estimate)
        self.assert_maps_agree(got, oracle_estimate_crosstalk(corr, 29))
        assert got.clamped_negative > 0


class TestSymmetryThroughStages:
    def test_exchange_symmetry_and_zero_diagonal(self, reference_model,
                                                 near_mapping):
        cfg = SensorConfig(dark_rate_hz=5000.0)
        xt = CrosstalkMap.from_dict({(1, 0): 1e-3, (-1, 0): 1e-3,
                                     (0, 1): 1e-3, (0, -1): 1e-3})
        batches = simulate_frames(reference_model, near_mapping, cfg,
                                  65536, 0.5, crosstalk=xt, seed=40)
        acc = accumulate(batches, mapping_mode="near")
        np.testing.assert_array_equal(acc.g2, acc.g2.T)
        assert np.all(np.diag(acc.g2) == 0)
        estimate = estimate_accidentals(acc)
        corr = subtract_accidentals(normalize(acc), estimate)
        cmap = estimate_crosstalk(acc)
        corr = correct_crosstalk(corr, cmap)
        corr = mask_neighbors(corr, 1)
        np.testing.assert_allclose(corr.values, corr.values.T, atol=1e-9)
        assert np.all(np.diag(corr.values) == 0.0)

    def test_corrected_save_load_round_trip(self, tmp_path):
        corr = blank_corrected(flags=("raw", "accidental_subtracted"))
        corr.values[3, 7] = 1.5
        corr.g1[3] = 0.5
        corr = mask_neighbors(corr, 1)
        path = tmp_path / "corr.blk"
        corr.save(path)
        back = CorrectedG2.load(path)
        assert back.flags == corr.flags
        assert back.mask_radius == 1
        np.testing.assert_array_equal(back.values, corr.values)
        np.testing.assert_array_equal(back.g1, corr.g1)
        np.testing.assert_array_equal(back.masked, corr.masked)
        # the mask is derived from the radius, not stored
        assert sorted(arraystore.load_arrays(path)[0]) == ["g1", "values"]

    @pytest.mark.parametrize("radius", [None, 1])
    @pytest.mark.parametrize("older", ["masked", "ordered_share"])
    def test_older_containers_load(self, tmp_path, radius, older):
        # containers written while CorrectedG2 stored its mask hold it
        # after values and g1, and those written while it also kept
        # values_later hold that as a fourth array; load ignores both and
        # derives the mask from the radius, even one the stored mask
        # contradicts
        rng = np.random.default_rng(8)
        corr = blank_corrected(flags=("raw", "accidental_subtracted"),
                               values=rng.normal(size=(1024, 1024)),
                               g1=rng.random(1024))
        if radius is not None:
            corr = mask_neighbors(corr, radius)
        path = tmp_path / "old.blk"
        if older == "masked":
            save_older_corrected(corr, path)
        else:
            save_older_corrected(corr, path,
                                 values_later=rng.normal(size=(1024, 1024)))
        back = CorrectedG2.load(path)
        assert back.flags == corr.flags and back.mask_radius == radius
        for name in ("values", "masked", "g1"):
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(corr, name))
        assert not hasattr(back, "values_later")
        save_older_corrected(corr, path, masked=~corr.masked)
        np.testing.assert_array_equal(CorrectedG2.load(path).masked,
                                      corr.masked)

    def test_older_container_loads_only_the_kept_arrays(self, tmp_path):
        # an older container's 8-MiB values_later is skipped, not read
        rng = np.random.default_rng(9)
        corr = blank_corrected(flags=("raw", "accidental_subtracted"),
                               values=rng.normal(size=(1024, 1024)))
        path = tmp_path / "old.blk"
        save_older_corrected(corr, path,
                             values_later=rng.normal(size=(1024, 1024)))
        tracemalloc.start()
        try:
            back = CorrectedG2.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(back.values, corr.values)
        assert peak < 10 * 2**20

    @pytest.mark.parametrize("flags, radius", [
        (("raw", "accidental_subtracted", "neighbor_masked"), None),
        (("raw", "accidental_subtracted"), 1),
        (("neighbor_masked", "raw"), 1),
        (("raw", "raw"), None),
        (("accidental_subtracted",), None)])
    def test_flags_must_agree_with_the_chain(self, tmp_path, flags, radius):
        """Flags start with raw, follow FLAG_ORDER without repeats and hold
        neighbor_masked exactly when a mask radius is set, whether the
        tensor is built or loaded."""
        with pytest.raises(InvariantViolation):
            blank_corrected(4, 4, flags=flags, mask_radius=radius)
        path = tmp_path / "corr.blk"
        blank_corrected(4, 4).save(path)
        arrays, meta = arraystore.load_arrays(path)
        arraystore.save_arrays(path, arrays, {
            **meta, "flags": list(flags), "mask_radius": radius})
        with pytest.raises(InvariantViolation):
            CorrectedG2.load(path)

    def test_kind_tag_checked_on_load(self, tmp_path):
        acc = CorrelationAccumulator(n_x=4, n_y=4, bins_per_frame=255,
                                     window=10, shift=20, n_frames=5)
        path = tmp_path / "acc.blk"
        acc.save(path)
        with pytest.raises(ConfigError):
            CorrectedG2.load(path)
        with pytest.raises(ConfigError):
            CrosstalkMap.load(path)
