import math

import numpy as np
import pytest

from helpers import (
    ACC_FIELDS,
    REFERENCE_CFG,
    batch_of,
    chi2_critical,
    goodness_of_fit,
    stream_digests,
    two_sample_chi2,
)
from spadcorr import sensor
from spadcorr.config import (
    build_crosstalk,
    build_mapping,
    build_model,
    build_sensor,
    load_config,
)
from spadcorr.correlator import accumulate
from spadcorr.errors import ConfigError, MalformedFrame
from spadcorr.eventfile import EventFileReader, EventFileWriter
from spadcorr.optics import map_sensor_to_object
from spadcorr.sensor import (
    CrosstalkSpec,
    FrameBatch,
    SensorConfig,
    _draw_pair_coordinates,
    _place_on_frames,
    draw_pixel_offsets,
    inject_crosstalk,
    quantize_tdc,
    simulate_frames,
)

# First 16 hex digits of the sha256 of each stream's event columns and
# accumulator arrays (helpers.stream_digests), recorded on the simulator
# that draws on one substream per chunk group: one Poisson pair total per
# group on uniform frames and one binomial hit count plus an unshuffled
# uniform subset of sources per cross-talk offset. Any change to the random
# draws or their order changes them. Every characterization group is one
# chunk, so those streams are the ones each chunk drew on its own substream
# before groups became the unit of randomness.
PINNED_DIGESTS = {
    (0, "far"):
        "bf678d13739eadf9 edccd76832a415fc ee4e8f7e61c2c15e 8902022ce51aca94 "
        "1d0d1c611acabd93 f61340de2fe893bc a489f96ce99884ea 280dd248c9b6d1f5",
    (0, "near"):
        "9625c02342363c47 5965934091ee9fe9 cfafbe4650b9a76a 4888facd41e26caa "
        "c29b9cdaa8b328a5 45d1af1bbe3862e6 0185841060cc6423 ef6baea289312bb7",
    (0, "characterization"):
        "928dda28a6bc8702 cc4bc6566e20008f 8ee2b8ea949518da c2bf83c39f7045b3 "
        "1e27549e742e1c3e 3e7f7799f10b0aa3 e5916c7b2ea5cc3b 50e2881e435be3c1",
    (36, "far"):
        "8d923327a59abe50 ffa1469a75abb523 59cb809aab8fc954 73b986ec9bd56349 "
        "b6bde62c4b9f047f 3b10b9a5dbc17cb7 ff33dd9d7f6ff6da 00f2d025dcc407af",
    (36, "near"):
        "027588215a4b15b8 6ebf8ff42240617c f1a92486533cc60a 9831740c964ccf13 "
        "f02b2969fe192c01 758995b40484d983 3b7232ce05f96e70 887fef752a227eac",
    (36, "characterization"):
        "5e193c722159e4fe fe1946e2c0652d0e dcdd823f60f634ab 314aa3e87e0846c6 "
        "af5c0ba7f1af7839 2946b52bbed3257b 20c3f7a77a3c1ccc e0af1a44c2a8ebb7",
    (103, "far"):
        "c79dcb05eec1ddfa 8734b59156d90e24 a019345481fe3168 5fe1f69e594e0213 "
        "b35e72170261d45c 1942e0b97a3e2f0a 3f28989831a3b785 cf9b5a115defb315",
    (103, "near"):
        "94398ce006bcd33f 42db1f058b3fb541 c8842f01705728be 43ef4e5c67fe21bc "
        "be721be2f8f09eb5 67a71352aa339997 804664307f91318c e53f0296fd549ae8",
    (103, "characterization"):
        "4488f8f3660ba7c0 c7ce89731c7e0c65 b58d8564ff31c316 b3263624a4938469 "
        "a30acdb584be2362 5c2ec09c08b0b093 17f9504873930825 53c55aa2c7dd1cee",
}


# The same digests for streams of LONG_FRAMES frames, recorded on the
# simulator that draws on one substream per chunk group.
# Several full chunk groups and a short last chunk: a stream that fits in
# one group cannot show a fault at a group boundary.
LONG_FRAMES = 40 * sensor.CHUNK_FRAMES + 1234
LONG_DIGESTS = {
    (103, "far"):
        "1875d56eb891fdfd 689511ce0087ef5e 0ecac799eef69691 73dd678a9142057d "
        "2a887528d43bb605 3195dba47bdc1945 a53f445c6b854a8e 85d5cdf26425e23d",
    (103, "near"):
        "50b2f618b5a7baaa 34d4da474b22c7b9 a8a968cc5a63281a 0260c3740aebb03e "
        "e53ac5d03e09b78c 341bfc038392be23 a2b52e6745d68aa9 f7d50739fa1edc6e",
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

    def test_pixel_count_fits_the_uint16_index(self):
        # FrameBatch.pixels is uint16: 65535 pixels at most
        with pytest.raises(ConfigError, match="65535 pixels"):
            SensorConfig(n_x=256, n_y=257)
        assert SensorConfig(n_x=255, n_y=257).n_pixels == 65535

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
    """The pair draw that every simulated chunk makes."""

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
        # one chunk per group, then 9 chunks per group
        for dark, pairs, chunks in ((5000.0, 0.3, 3), (1000.0, 0.05, 20)):
            cfg = SensorConfig(dark_rate_hz=dark)
            kw = dict(pairs_per_frame_mean=pairs, seed=10)
            a, b = (list(simulate_frames(reference_model, far_mapping, cfg,
                                         chunks * 65536, workers=workers,
                                         **kw))
                    for workers in (1, 4))
            # the workers must have more than one chunk group to share
            assert len(a) >= 2
            for x, y in zip(concat_batches(a), concat_batches(b)):
                np.testing.assert_array_equal(x, y)
        assert a[0].n_frames > 65536

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


# Significance level of each chi-square check below; every test repeats its
# checks on 3 seeds.
ALPHA = 1e-3
LAW_SEEDS = [1, 2, 3]


def poisson_pmf(mean):
    return lambda k: np.array([math.exp(i * math.log(mean) - mean
                                        - math.lgamma(i + 1)) for i in k])


def binomial_pmf(n, p):
    def one(i):
        if i > n:
            return 0.0
        return math.exp(math.lgamma(n + 1) - math.lgamma(i + 1)
                        - math.lgamma(n - i + 1) + i * math.log(p)
                        + (n - i) * math.log1p(-p))
    return lambda k: np.array([one(i) for i in k])


def per_frame_pair_draw(rng, pairs_mean, lo, hi):
    """The draw the per-group total replaced: one Poisson count per frame."""
    counts = rng.poisson(pairs_mean, hi - lo)
    return np.repeat(np.arange(lo, hi, dtype=np.int64), counts)


class TestSameLaw:
    """The per-group draws have the law of the per-frame / per-source ones."""

    @pytest.mark.parametrize("mean", [0.05, 1.5])
    @pytest.mark.parametrize("seed", LAW_SEEDS)
    def test_pair_counts_per_frame_are_poisson(self, seed, mean):
        lo, hi = 3 * 65536, 7 * 65536
        frames = _place_on_frames(np.random.default_rng(seed), mean, lo, hi)
        assert frames.min() >= lo and frames.max() < hi
        counts = np.bincount(frames - lo, minlength=hi - lo)
        stat, crit = goodness_of_fit(counts, poisson_pmf(mean), ALPHA)
        assert stat < crit
        old = per_frame_pair_draw(np.random.default_rng(seed + 100), mean,
                                  lo, hi)
        stat, crit = two_sample_chi2(
            counts, np.bincount(old - lo, minlength=hi - lo), ALPHA)
        assert stat < crit

    def test_no_pairs_draws_nothing(self):
        rng = np.random.default_rng(0)
        assert _place_on_frames(rng, 0.0, 0, 65536).size == 0
        assert rng.random() == np.random.default_rng(0).random()

    @pytest.mark.parametrize("seed", LAW_SEEDS)
    def test_noise_free_stream_matches_per_frame_draw(
            self, reference_model, far_mapping, seed, monkeypatch):
        """Events per frame of a noise-free stream, new draw against old."""
        cfg = SensorConfig(efficiency=1.0, dark_rate_hz=0.0,
                           jitter_sigma_ps=0.0)
        n = 4 * 65536

        def events_per_frame():
            fids, _, _ = concat_batches(simulate_frames(
                reference_model, far_mapping, cfg, n,
                pairs_per_frame_mean=0.5, seed=seed))
            return np.bincount(fids, minlength=n)

        new = events_per_frame()
        monkeypatch.setattr(sensor, "_place_on_frames", per_frame_pair_draw)
        old = events_per_frame()
        stat, crit = two_sample_chi2(new, old, ALPHA)
        assert stat < crit

    @pytest.mark.parametrize("seed", LAW_SEEDS)
    def test_crosstalk_hits_are_binomial_and_even(self, seed):
        cfg = SensorConfig()
        n_src, reps = 1000, 1000
        # pixel 500 is column 19, row 15 (0-based): every neighbour is on
        # the sensor, and each offset lands on its own pixel
        probs = {(1, 0): 0.02, (0, 1): 0.005, (-1, -1): 0.05}
        landing = {500 + dx + 32 * dy: (dx, dy) for dx, dy in probs}
        spec = CrosstalkSpec.from_dict(probs)
        rng = np.random.default_rng(seed)
        hits = {off: np.zeros(reps, dtype=np.int64) for off in probs}
        per_source = {off: np.zeros(n_src, dtype=np.int64) for off in probs}
        for r in range(reps):
            fids, pix, _ = inject_crosstalk(np.arange(n_src),
                                            np.full(n_src, 500),
                                            np.zeros(n_src), spec, cfg, rng)
            src, pix = fids[n_src:], pix[n_src:]
            for lin, off in landing.items():
                mine = src[pix == lin]
                # secondaries of one offset follow their sources' order
                assert np.all(np.diff(mine) > 0)
                hits[off][r] = mine.size
                per_source[off] += np.bincount(mine, minlength=n_src)
        for off, p in probs.items():
            stat, crit = goodness_of_fit(hits[off], binomial_pmf(n_src, p),
                                         ALPHA)
            assert stat < crit, off
            # every source fires equally often: uniform over sources
            got = per_source[off]
            want = got.sum() / n_src
            stat = float(np.sum((got - want) ** 2 / want))
            assert stat < chi2_critical(n_src - 1, ALPHA), off


class TestPinnedStreams:
    @pytest.mark.parametrize("seed", [0, 36, 103])
    def test_streams_match_pinned_digests(self, seed):
        fields = ("frame_ids", "pixels", "tdc") + ACC_FIELDS
        got = stream_digests(seed)
        for name in ("far", "near", "characterization"):
            want = dict(zip(fields, PINNED_DIGESTS[seed, name].split()))
            assert got[name] == want, name


    @pytest.mark.parametrize("name", ["far", "near"])
    def test_long_streams_match_pinned_digests(self, name):
        fields = ("frame_ids", "pixels", "tdc") + ACC_FIELDS
        got = stream_digests(103, n_frames=LONG_FRAMES, streams=(name,))
        want = dict(zip(fields, LONG_DIGESTS[103, name].split()))
        assert got[name] == want

    @pytest.mark.parametrize("mode", ["far", "near"])
    def test_batches_tile_the_stream_on_chunk_edges(self, mode):
        settings = load_config(REFERENCE_CFG)
        batches = list(simulate_frames(
            build_model(settings), build_mapping(settings, mode),
            build_sensor(settings), LONG_FRAMES,
            settings[f"run.pairs_per_frame_{mode}"],
            crosstalk=build_crosstalk(settings), seed=103))
        starts = [b.start_frame for b in batches]
        ends = [b.start_frame + b.n_frames for b in batches]
        assert starts[0] == 0 and ends[-1] == LONG_FRAMES
        assert starts[1:] == ends[:-1]
        assert all(start % sensor.CHUNK_FRAMES == 0 for start in starts)
        for b in batches:
            assert np.all((b.frame_ids >= b.start_frame)
                          & (b.frame_ids < b.start_frame + b.n_frames))


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


def frame_batch(start, n_frames, ids, pixels, tdc):
    return FrameBatch(start, n_frames, np.asarray(ids, np.int64),
                      np.asarray(pixels, np.uint16), np.asarray(tdc, np.uint8))


class TestFrameBatchContract:
    """FrameBatch.checked_columns is the one check of a batch: the event
    file writer and the accumulator both refuse a batch that breaks the
    contract with the same MalformedFrame and keep no part of it."""

    @pytest.mark.parametrize("batch, match", [
        (FrameBatch(0, 1, np.zeros(2, np.int64), np.ones(1, np.uint16),
                    np.zeros(2, np.uint8)), "columns"),
        (frame_batch(0, 1, [[0, 0]], [[1, 2]], [[0, 3]]), "columns"),
        (frame_batch(0, -3, [0, 0], [1, 2], [0, 3]), "negative frame count"),
        (frame_batch(0, -3, [], [], []), "negative frame count"),
        (frame_batch(0, 1, [5, 5], [1, 2], [0, 3]), "outside the batch's"),
        (frame_batch(10, 4, [9, 9], [1, 2], [0, 3]), "outside the batch's"),
        (frame_batch(0, 1, [0, 1], [1, 2], [0, 3]), "outside the batch's"),
        (batch_of((0, [0], [0])), "pixel index outside the array"),
        (batch_of((0, [1025], [0])), "pixel index outside the array"),
        (batch_of((0, [1], [255])), "tdc code outside the frame"),
        (batch_of((0, [5, 5], [1, 2])), "fired twice"),
        (batch_of((0, [3], [0]), (1, [2, 7, 7], [0, 1, 2])), "fired twice"),
        (batch_of((1, [3], [0]), (0, [2], [0]), n_frames=2),
         r"out of \(frame, pixel\)"),
        (batch_of((0, [1], [0]), (1, [2], [0]), (0, [3], [0])),
         r"out of \(frame, pixel\)"),
        (batch_of((0, [5, 2], [1, 2])), r"out of \(frame, pixel\)"),
        (batch_of((0, [2, 9], [0, 0]), (1, [9, 2, 4], [0, 0, 0])),
         r"out of \(frame, pixel\)"),
    ], ids=["ragged", "not-1d", "negative-count", "negative-count-empty",
            "id-past-span", "id-before-span", "last-id-past-span",
            "pixel-zero", "pixel-beyond-array", "tdc-at-bins",
            "pixel-repeated", "pixel-repeated-later", "ids-decrease",
            "ids-interleaved", "pixels-descend", "pixels-descend-later"])
    def test_writer_and_accumulator_reject(self, tmp_path, batch, match):
        acc = accumulate(batch_of((0, [1, 2], [0, 3])))
        before = [acc.n_frames] + [getattr(acc, name).copy()
                                   for name in ACC_FIELDS]
        with pytest.raises(MalformedFrame, match=match):
            acc.add_batch(batch)
        assert acc.n_frames == before[0]
        for name, then in zip(ACC_FIELDS, before[1:]):
            np.testing.assert_array_equal(getattr(acc, name), then)

        path = tmp_path / "x.evt"
        writer = EventFileWriter(path)
        try:
            with pytest.raises(MalformedFrame, match=match):
                writer.add_batch(batch)
            assert writer.bytes_written == 22   # the header alone
            # nothing of the rejected batch counts as written
            writer.add_batch(batch_of((0, [1], [0])))
            assert writer.close() == 1
        finally:
            writer.discard()
        assert [b.n_events for b in EventFileReader(path).iter_batches()] \
            == [1]

    def test_span_edges_accepted(self, tmp_path):
        batch = frame_batch(10, 4, [10, 10, 13], [1, 2, 1], [0, 3, 0])
        f, p, t = batch.checked_columns(1024, 255)
        for got, want in zip((f, p, t), (batch.frame_ids, batch.pixels,
                                         batch.tdc)):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        acc = accumulate(batch)
        assert acc.n_frames == 4 and acc.g2[0, 1] == acc.g2[1, 0] == 1
        writer = EventFileWriter(tmp_path / "x.evt")
        writer.add_batch(batch)
        assert writer.close(total_frames=14) == 14

    def test_empty_batch_counts_its_frames(self):
        acc = accumulate(frame_batch(0, 7, [], [], []))
        assert acc.n_frames == 7 and acc.g1.sum() == 0
