import numpy as np
import pytest

from helpers import ACC_FIELDS, stream_digests
from spadcorr.errors import ConfigError
from spadcorr.optics import map_sensor_to_object
from spadcorr.sensor import (
    CrosstalkSpec,
    SensorConfig,
    _draw_pair_coordinates,
    draw_pixel_offsets,
    inject_crosstalk,
    quantize_tdc,
    simulate_frames,
)

# First 16 hex digits of the sha256 of each stream's event columns and
# accumulator arrays (helpers.stream_digests), recorded on the simulator
# that kept each pixel's earliest hit by a lexsort on float times: the
# one-key sort must reproduce them bit for bit.
PINNED_DIGESTS = {
    (0, "far"):
        "6422e9e5cf5d4e88 7193f79175ab9df1 8d88734e234d6067 3cd913b3f43138d4 "
        "d7307e9b36c5d7dd bf0aacb55bb3080c 3ae5b68a1605b025 e5ad11d836b10fac",
    (0, "near"):
        "51c47f8106c94255 9b06310333311be1 74ab6a6976cdc886 1b8be1f6adffa0b4 "
        "bd1524e9c4e6cb1c 9bea307999179788 7db0f76d296a351e b78648235510acb1",
    (0, "characterization"):
        "3df1437f65f29c7c e577a73bf247db24 83ae28c7c19de601 50bd43884e554dfe "
        "e102386edfd0cf81 252ba425b88cfbfe 26f48620cc61a515 a105245fe004c55f",
    (36, "far"):
        "cada4f221adda46e ae98328e15c85fbd 0fed697c21da4a7b 52b5c30c3df4e108 "
        "67c592f26951f146 0b40617f1c46ca96 2aebfc9a8d5bf3fd cddbaa5b5b79fadc",
    (36, "near"):
        "2a045dbaf243456c aeabf123b5523d97 2e1a1562bc4016e6 2b53200a36812ac4 "
        "60dbe6cd53f6a45e f651af95a4099f9c 09ed6ba1a48dca57 71d1cec20305fb88",
    (36, "characterization"):
        "92a76c6694923359 4dc4fc36b1ff2db6 2d6caf692e3f3b3e 7f895bb7be85ce38 "
        "0858c7b8e927c80e 2cf5472c02f82c78 51ff552ac72a1bdf 3727fbe4e5426fde",
    (103, "far"):
        "cecb4b11245aa58c 42c9aade5b03cf17 bca93bfd9a97e872 c2839edf0808d04f "
        "c2c85e582148531c 9eb7ec7b287cb839 e2e7ba5a892aa3d5 a0c4e9908d889569",
    (103, "near"):
        "d2d78421a898e145 80613e1d7f0756cd a72c469e6a29fb44 bf41cf3e5e4fa396 "
        "7de1555da1cf54a0 db9f8e2296793beb c28336d6adf0b0ac 5d0b5e99868fe880",
    (103, "characterization"):
        "89b5dd5020a03e5e b27ba2d0aff5cdfd ebfc8ead6aae37ea eeb44e186149a395 "
        "6b365193ebf00e18 b29589f0cc2844cb c4568914312beb86 bbfed0fcecdfd1fb",
}


def concat_batches(batches):
    batches = list(batches)
    return (np.concatenate([b.frame_ids for b in batches]),
            np.concatenate([b.pixels for b in batches]),
            np.concatenate([b.tdc for b in batches]))


def pairs_within_frames(frame_ids):
    """Number of unordered event pairs sharing a frame, summed over frames."""
    if frame_ids.size == 0:
        return 0.0, 0.0
    counts = np.bincount(frame_ids - frame_ids.min())
    c = counts * (counts - 1) / 2.0
    return float(c.sum()), float(c.var() * c.size)


class TestSensorConfig:
    def test_boundary_efficiencies_allowed(self):
        assert SensorConfig(efficiency=0.0).efficiency == 0.0
        assert SensorConfig(efficiency=1.0).efficiency == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            SensorConfig(efficiency=1.2)
        with pytest.raises(ConfigError):
            SensorConfig(efficiency=-0.1)
        with pytest.raises(ConfigError):
            SensorConfig(dark_rate_hz=-1.0)
        with pytest.raises(ConfigError):
            SensorConfig(jitter_sigma_ps=-1.0)
        with pytest.raises(ConfigError):
            SensorConfig(bins_per_frame=0)
        with pytest.raises(ConfigError):
            SensorConfig(bins_per_frame=257)
        with pytest.raises(ConfigError):
            SensorConfig(tdc_bin_ps=0.0)
        with pytest.raises(ConfigError):
            SensorConfig(pixel_pitch_um=0.0)
        with pytest.raises(ConfigError):
            SensorConfig(n_x=0)
        with pytest.raises(ConfigError):
            SensorConfig(pixel_offsets_ps=np.zeros(5))

    def test_frame_duration(self):
        cfg = SensorConfig()
        assert cfg.frame_duration_ps == pytest.approx(52275.0)
        assert cfg.n_pixels == 1024


class TestQuantizeTdc:
    def test_bin_edges(self):
        cfg = SensorConfig()
        bins, inside = quantize_tdc(
            [0.0, 204.999, 205.0, 52274.9, 52275.0, 52300.0, -1.0], cfg)
        np.testing.assert_array_equal(
            inside, [True, True, True, True, False, False, False])
        np.testing.assert_array_equal(bins[inside], [0, 0, 1, 254])
        assert bins.dtype == np.int64


class TestCrosstalkSpec:
    def test_from_dict_drops_zero_entries(self):
        spec = CrosstalkSpec.from_dict({(1, 0): 1e-3, (0, 1): 0.0})
        assert spec.entries == ((1, 0, 1e-3),)
        assert spec.probability(1, 0) == 1e-3
        assert spec.probability(0, 1) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            CrosstalkSpec(((0, 0, 0.5),))
        with pytest.raises(ConfigError):
            CrosstalkSpec(((1, 0, 1.5),))
        with pytest.raises(ConfigError):
            CrosstalkSpec(((1, 0, 0.1), (1, 0, 0.2)))
        assert CrosstalkSpec.none().is_empty


class TestSamplePair:
    """The pair draw that _simulate_chunk runs."""

    def test_shapes(self, reference_model, far_mapping, rng):
        r1, r2 = _draw_pair_coordinates(reference_model, far_mapping, 1, rng)
        assert r1.shape == r2.shape == (1, 2)
        r1, r2 = _draw_pair_coordinates(reference_model, far_mapping, 5, rng)
        assert r1.shape == r2.shape == (5, 2)

    def test_centroid_unbiased(self, reference_model, far_mapping):
        rng = np.random.default_rng(41)
        r1, r2 = _draw_pair_coordinates(reference_model, far_mapping,
                                        1_000_000, rng)
        s = r1 + r2
        for k in range(2):
            se = s[:, k].std() / np.sqrt(s.shape[0])
            assert abs(s[:, k].mean()) < 4 * se

    def test_far_field_difference_width(self, reference_model, far_mapping):
        rng = np.random.default_rng(42)
        r1, r2 = _draw_pair_coordinates(reference_model, far_mapping,
                                        1_000_000, rng)
        q1 = map_sensor_to_object(far_mapping, r1)
        q2 = map_sensor_to_object(far_mapping, r2)
        qm = (q1 - q2) / np.sqrt(2.0)
        assert qm[:, 0].std() == pytest.approx(
            reference_model.sigma_q_minus_x, rel=0.01)
        assert qm[:, 1].std() == pytest.approx(
            reference_model.sigma_q_minus_y, rel=0.01)

    def test_momentum_anticorrelation(self, reference_model, far_mapping):
        rng = np.random.default_rng(43)
        r1, r2 = _draw_pair_coordinates(reference_model, far_mapping,
                                        1_000_000, rng)
        q1 = map_sensor_to_object(far_mapping, r1)[:, 0]
        q2 = map_sensor_to_object(far_mapping, r2)[:, 0]
        got = np.corrcoef(q1, q2)[0, 1]
        sp2 = reference_model.sigma_q_plus_x ** 2
        sm2 = reference_model.sigma_q_minus_x ** 2
        want = -(sm2 - sp2) / (sm2 + sp2)
        assert got < -0.9
        assert got == pytest.approx(want, abs=5e-3)

    def test_unspecified_mapping_rejected(self, reference_model, rng):
        from spadcorr.optics import OpticalMapping
        with pytest.raises(ConfigError):
            _draw_pair_coordinates(reference_model,
                                   OpticalMapping(mode="unspecified"), 1, rng)


class TestInjectCrosstalk:
    def test_empty_spec_is_identity(self, rng):
        cfg = SensorConfig()
        fids = np.array([0, 0, 4], dtype=np.int64)
        pix = np.array([10, 20, 30], dtype=np.int64)
        t = np.array([1.0, 2.0, 3.0])
        out_f, out_pix, out_t = inject_crosstalk(
            fids, pix, t, CrosstalkSpec.none(), cfg, rng)
        np.testing.assert_array_equal(out_f, fids)
        np.testing.assert_array_equal(out_pix, pix)
        np.testing.assert_array_equal(out_t, t)

    def test_certain_echo_lands_on_neighbor(self, rng):
        cfg = SensorConfig()
        # pixel (5, 5) 1-based is linear 133; (6, 5) is 134
        spec = CrosstalkSpec.from_dict({(1, 0): 1.0})
        fids, pix, t = inject_crosstalk(np.array([3]), np.array([133]),
                                        np.array([1000.0]), spec, cfg, rng)
        np.testing.assert_array_equal(fids, [3, 3])
        np.testing.assert_array_equal(pix, [133, 134])
        delay = t[1] - 1000.0
        assert 0.0 <= delay < cfg.tdc_bin_ps

    def test_edge_echo_discarded(self, rng):
        cfg = SensorConfig()
        spec = CrosstalkSpec.from_dict({(1, 0): 1.0})
        # pixel 32 sits on the rightmost column
        fids, pix, t = inject_crosstalk(np.array([0]), np.array([32]),
                                        np.array([0.0]), spec, cfg, rng)
        np.testing.assert_array_equal(fids, [0])
        np.testing.assert_array_equal(pix, [32])

    def test_binomial_rate(self):
        cfg = SensorConfig()
        rng = np.random.default_rng(44)
        n = 10_000_000
        spec = CrosstalkSpec.from_dict({(1, 0): 1e-3})
        fids, pix, t = inject_crosstalk(np.arange(n), np.full(n, 500),
                                        np.zeros(n), spec, cfg, rng)
        echoes = pix.size - n
        assert abs(echoes - 1e4) < 4 * np.sqrt(1e4)
        assert np.all(t[n:] >= 0.0)
        assert np.all(t[n:] < cfg.tdc_bin_ps)

    def test_frame_ids_carried_along(self, rng):
        cfg = SensorConfig()
        spec = CrosstalkSpec.from_dict({(0, 1): 1.0})
        fids, pix, t = inject_crosstalk(np.array([7, 9]), np.array([1, 33]),
                                        np.array([0.0, 5.0]), spec, cfg, rng)
        assert pix.size == 4
        np.testing.assert_array_equal(fids, [7, 9, 7, 9])
        np.testing.assert_array_equal(pix[2:], [33, 65])


class TestSimulateFrames:
    def test_dead_sensor_yields_empty_frames(self, reference_model,
                                             far_mapping):
        cfg = SensorConfig(efficiency=0.0, dark_rate_hz=0.0)
        batches = list(simulate_frames(reference_model, far_mapping, cfg,
                                       1000, pairs_per_frame_mean=2.0,
                                       seed=1))
        assert sum(b.n_events for b in batches) == 0
        assert sum(b.n_frames for b in batches) == 1000

    def test_dark_only_poisson_rate(self, reference_model, far_mapping):
        cfg = SensorConfig(efficiency=0.5, dark_rate_hz=1000.0)
        n_frames = 10_000_000
        total = 0
        for b in simulate_frames(reference_model, far_mapping, cfg, n_frames,
                                 pairs_per_frame_mean=0.0, seed=2):
            total += b.n_events
        # per pixel per frame: 1000 Hz * 52.275 ns = 5.2275e-5
        mean = 5.2275e-5 * 1024 * n_frames
        assert abs(total - mean) < 4 * np.sqrt(mean)

    def test_validation(self, reference_model, far_mapping):
        from spadcorr.optics import OpticalMapping
        cfg = SensorConfig()
        with pytest.raises(ConfigError):
            list(simulate_frames(reference_model, far_mapping, cfg, -1, 1.0))
        with pytest.raises(ConfigError):
            list(simulate_frames(reference_model, far_mapping, cfg, 10, -1.0))
        with pytest.raises(ConfigError):
            list(simulate_frames(reference_model,
                                 OpticalMapping(mode="unspecified"), cfg,
                                 10, 1.0))

    def test_same_seed_reproduces(self, reference_model, near_mapping):
        cfg = SensorConfig()
        a = concat_batches(simulate_frames(reference_model, near_mapping,
                                           cfg, 70000, 0.5, seed=9))
        b = concat_batches(simulate_frames(reference_model, near_mapping,
                                           cfg, 70000, 0.5, seed=9))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_worker_count_invisible(self, reference_model, far_mapping):
        cfg = SensorConfig(dark_rate_hz=5000.0)
        kw = dict(pairs_per_frame_mean=0.3, seed=10)
        a = concat_batches(simulate_frames(reference_model, far_mapping, cfg,
                                           3 * 65536, workers=1, **kw))
        b = concat_batches(simulate_frames(reference_model, far_mapping, cfg,
                                           3 * 65536, workers=4, **kw))
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_stream_invariants(self, reference_model, far_mapping):
        cfg = SensorConfig(dark_rate_hz=30000.0)
        xt = CrosstalkSpec.from_dict({(1, 0): 0.01, (-1, 0): 0.01,
                                      (0, 1): 0.01, (0, -1): 0.01})
        for batch in simulate_frames(reference_model, far_mapping, cfg,
                                     65536, pairs_per_frame_mean=2.5,
                                     crosstalk=xt, seed=11):
            assert np.all(batch.tdc < cfg.bins_per_frame)
            assert np.all(batch.pixels >= 1)
            assert np.all(batch.pixels <= cfg.n_pixels)
            # events sorted by frame, strictly by pixel within a frame
            assert np.all(np.diff(batch.frame_ids) >= 0)
            same = np.diff(batch.frame_ids) == 0
            assert np.all(np.diff(batch.pixels.astype(np.int64))[same] > 0)

    def test_pair_photons_share_a_bin_without_noise(self, reference_model,
                                                    far_mapping):
        cfg = SensorConfig(efficiency=1.0, dark_rate_hz=0.0,
                           jitter_sigma_ps=0.0)
        batch = next(simulate_frames(reference_model, far_mapping, cfg,
                                     65536, pairs_per_frame_mean=0.05,
                                     seed=12))
        counts = np.bincount(batch.frame_ids, minlength=65536)
        two = np.flatnonzero(counts == 2)
        starts = np.searchsorted(batch.frame_ids, two)
        equal = batch.tdc[starts] == batch.tdc[starts + 1]
        assert two.size > 1000
        assert equal.mean() >= 0.999

    def test_coincidences_scale_with_efficiency_squared(
            self, reference_model, far_mapping):
        n = 8 * 65536
        totals = {}
        variances = {}
        for eta in (0.5, 0.25):
            cfg = SensorConfig(efficiency=eta, dark_rate_hz=0.0)
            fids, _, _ = concat_batches(simulate_frames(
                reference_model, far_mapping, cfg, n,
                pairs_per_frame_mean=0.05, seed=13))
            totals[eta], variances[eta] = pairs_within_frames(fids)
        ratio = totals[0.5] / totals[0.25]
        se = ratio * np.sqrt(variances[0.5] / totals[0.5] ** 2
                             + variances[0.25] / totals[0.25] ** 2)
        assert abs(ratio - 4.0) < 4 * se

    def test_accidentals_scale_with_dark_rate_squared(self, reference_model,
                                                      far_mapping):
        n = 65536
        totals = {}
        variances = {}
        for dark in (30000.0, 15000.0):
            cfg = SensorConfig(dark_rate_hz=dark)
            fids, _, _ = concat_batches(simulate_frames(
                reference_model, far_mapping, cfg, n,
                pairs_per_frame_mean=0.0, seed=14))
            totals[dark], variances[dark] = pairs_within_frames(fids)
        ratio = totals[30000.0] / totals[15000.0]
        se = ratio * np.sqrt(variances[30000.0] / totals[30000.0] ** 2
                             + variances[15000.0] / totals[15000.0] ** 2)
        assert abs(ratio - 4.0) < 4 * se


class TestPinnedStreams:
    @pytest.mark.parametrize("seed", [0, 36, 103])
    def test_streams_match_pinned_digests(self, seed):
        fields = ("frame_ids", "pixels", "tdc") + ACC_FIELDS
        got = stream_digests(seed)
        for name in ("far", "near", "characterization"):
            want = dict(zip(fields, PINNED_DIGESTS[seed, name].split()))
            assert got[name] == want, name


class TestPixelOffsets:
    def test_draw_is_deterministic_and_bounded(self):
        cfg = SensorConfig()
        a = draw_pixel_offsets(cfg, 400.0, seed=3)
        b = draw_pixel_offsets(cfg, 400.0, seed=3)
        c = draw_pixel_offsets(cfg, 400.0, seed=4)
        np.testing.assert_array_equal(a.pixel_offsets_ps, b.pixel_offsets_ps)
        assert not np.array_equal(a.pixel_offsets_ps, c.pixel_offsets_ps)
        assert a.pixel_offsets_ps.shape == (1024,)
        assert np.all(np.abs(a.pixel_offsets_ps) <= 400.0)

    def test_negative_range_rejected(self):
        with pytest.raises(ConfigError):
            draw_pixel_offsets(SensorConfig(), -1.0, seed=0)
