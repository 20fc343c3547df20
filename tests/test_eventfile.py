import struct

import numpy as np
import pytest

from helpers import batch_of, decode_outcome, frame_groups, \
    oracle_read_batches, write_event_file
from spadcorr import eventfile
from spadcorr.errors import (
    BadMagic,
    ConfigError,
    InvariantViolation,
    MalformedFrame,
    OrderViolation,
    RangeViolation,
    TruncatedFile,
)
from spadcorr.eventfile import (
    MAGIC,
    EventFileWriter,
    read_batches,
    read_header,
)
from spadcorr.optics import DoubleGaussianModel, OpticalMapping
from spadcorr.pipeline import accumulate_file
from spadcorr.sensor import FrameBatch, SensorConfig, simulate_frames

SENTINEL = 0xFFFFFFFF


def random_sparse_batch(rng, n_pix=1024, bins=255, id_span=200,
                        max_frames=40):
    """Batch over [0, id_span) storing up to max_frames random frames."""
    n = int(rng.integers(0, max_frames))
    ids = np.sort(rng.choice(id_span, size=n, replace=False))
    frames = []
    for fid in ids:
        k = int(rng.integers(1, 8))
        pix = np.sort(rng.choice(np.arange(1, n_pix + 1), size=k,
                                 replace=False))
        frames.append((int(fid), pix, rng.integers(0, bins, k)))
    return batch_of(*frames, n_frames=id_span)


def columns(batches):
    """Concatenated (frame id, pixel, tdc) columns of a batch sequence."""
    batches = list(batches)
    return [np.concatenate([np.empty(0, dt)] + [getattr(b, name)
                                                 for b in batches])
            for name, dt in (("frame_ids", np.int64), ("pixels", np.uint16),
                             ("tdc", np.uint8))]


def assert_same_events(got, want):
    for a, b in zip(columns(got), columns(want)):
        np.testing.assert_array_equal(a, b)
        assert a.dtype == b.dtype


def raw_header(n_x=32, n_y=32, tdc=205, bins=255, mode=2,
               reserved=b"\0\0\0"):
    return struct.pack("<8sHHIHB3s", MAGIC, n_x, n_y, tdc, bins, mode,
                       reserved)


def raw_frame(fid, events):
    out = struct.pack("<IH", fid, len(events))
    for p, t in events:
        out += struct.pack("<HB", p, t)
    return out


def raw_footer(total):
    return struct.pack("<IHQ", SENTINEL, 0, total)


class TestWireFormat:
    def test_empty_stream_is_header_plus_footer(self, tmp_path):
        path = tmp_path / "empty.evt"
        n = write_event_file(path, [], total_frames=10)
        assert n == 36
        assert path.stat().st_size == 36
        hdr = read_header(path)
        assert hdr.total_frames == 10
        assert hdr.n_x == hdr.n_y == 32
        assert hdr.bins_per_frame == 255
        assert [(b.start_frame, b.n_frames, b.n_events)
                for b in read_batches(path)] == [(0, 10, 0)]

    def test_single_event_bytes_match_layout(self, tmp_path):
        path = tmp_path / "one.evt"
        n = write_event_file(path, batch_of((3, [5], [7])))
        expected = raw_header() + raw_frame(3, [(5, 7)]) + raw_footer(4)
        assert path.read_bytes() == expected
        assert n == len(expected) == 45

    def test_mode_codes_on_wire(self, tmp_path):
        for mode, code in (("far", 0), ("near", 1), ("unspecified", 2)):
            path = tmp_path / f"{mode}.evt"
            write_event_file(path, batch_of((0, [1], [0])), mapping_mode=mode)
            assert path.read_bytes()[18] == code
            assert read_header(path).mapping_mode == mode

    def test_write_is_deterministic(self, tmp_path):
        batch = random_sparse_batch(np.random.default_rng(8))
        a, b = tmp_path / "a.evt", tmp_path / "b.evt"
        write_event_file(a, batch)
        write_event_file(b, batch)
        assert a.read_bytes() == b.read_bytes()

    def test_batch_writer_matches_frame_writer(self, tmp_path):
        # reference: one struct-packed record per stored frame
        batch = random_sparse_batch(np.random.default_rng(13))
        want = (raw_header()
                + b"".join(raw_frame(fid, list(zip(pix, tdc)))
                           for fid, pix, tdc in frame_groups(batch))
                + raw_footer(200))
        path = tmp_path / "a.evt"
        write_event_file(path, batch, total_frames=200)
        assert path.read_bytes() == want
        # splitting the stream into batches at frame boundaries changes nothing
        cut = np.searchsorted(batch.frame_ids, [50, 51, 120])
        pieces = [np.split(c, cut)
                  for c in (batch.frame_ids, batch.pixels, batch.tdc)]
        parts = [FrameBatch(0, 0, *cols) for cols in zip(*pieces)]
        write_event_file(path, parts, total_frames=200)
        assert path.read_bytes() == want


class TestRoundTrip:
    def test_random_streams_round_trip(self, tmp_path):
        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            batch = random_sparse_batch(rng)
            path = tmp_path / f"s{seed}.evt"
            write_event_file(path, batch, total_frames=200)
            back = list(read_batches(path))
            assert [(b.start_frame, b.n_frames) for b in back] == [(0, 200)]
            assert_same_events(back, [batch])

    def test_batches_tile_the_frame_range(self, tmp_path):
        rng = np.random.default_rng(55)
        batch = random_sparse_batch(rng, id_span=90, max_frames=30)
        path = tmp_path / "tile.evt"
        write_event_file(path, batch, total_frames=100)
        batches = list(read_batches(path, frames_per_batch=16))
        assert [b.start_frame for b in batches] == list(range(0, 100, 16))
        assert sum(b.n_frames for b in batches) == 100
        for b in batches:
            ids = b.frame_ids
            assert np.all((ids >= b.start_frame)
                          & (ids < b.start_frame + b.n_frames))
        assert_same_events(batches, [batch])

    def test_simulated_stream_round_trips(self, tmp_path):
        model = DoubleGaussianModel.from_inferred_targets(37.3, 4.0, 37.3, 3.4)
        mapping = OpticalMapping(mode="far")
        cfg = SensorConfig()
        src = list(simulate_frames(model, mapping, cfg, 2 * 65536,
                                   pairs_per_frame_mean=0.02, seed=5))
        path = tmp_path / "sim.evt"
        writer = EventFileWriter(path)
        for batch in src:
            writer.add_batch(batch)
        writer.close(total_frames=2 * 65536)
        back = list(read_batches(path, frames_per_batch=65536))
        # the simulator's batches span chunk groups, the reader's 65536
        # frames each: compare the streams, not the batch boundaries
        assert [b.n_frames for b in back] == [65536, 65536]
        for field in ("frame_ids", "pixels", "tdc"):
            np.testing.assert_array_equal(
                np.concatenate([getattr(b, field) for b in src]),
                np.concatenate([getattr(b, field) for b in back]))


class TestWriterErrors:
    def test_frame_order_enforced(self, tmp_path):
        w = EventFileWriter(tmp_path / "x.evt")
        w.add_batch(batch_of((5, [1], [0])))
        with pytest.raises(OrderViolation):
            w.add_batch(batch_of((5, [2], [0])))
        with pytest.raises(OrderViolation):
            w.add_batch(batch_of((3, [2], [0])))

    def test_ids_decreasing_within_batch_rejected(self, tmp_path):
        path = tmp_path / "x.evt"
        w = EventFileWriter(path)
        w.add_batch(batch_of((0, [2], [0])))
        # interleaved ids would move frame 3's pixel 7 into frame 4
        with pytest.raises(OrderViolation, match="frame 3 after frame 4"):
            w.add_batch(batch_of((3, [3], [0]), (4, [5], [0]),
                                 (3, [7], [0])))
        with pytest.raises(OrderViolation, match="frame 3 after frame 4"):
            w.add_batch(batch_of((4, [1], [0]), (3, [1], [0]),
                                 (5, [1], [0])))
        w.close(total_frames=6)
        assert_same_events(read_batches(path), [batch_of((0, [2], [0]))])

    def test_ragged_columns_rejected(self, tmp_path):
        w = EventFileWriter(tmp_path / "x.evt")
        ragged = FrameBatch(0, 1, np.zeros(2, np.int64),
                            np.ones(1, np.uint16), np.zeros(2, np.uint8))
        with pytest.raises(MalformedFrame, match="columns"):
            w.add_batch(ragged)
        with pytest.raises(MalformedFrame, match="cannot encode"):
            w.add_batch((0, [1], [0]))
        assert w.close() == 0

    def test_pixel_order_enforced(self, tmp_path):
        w = EventFileWriter(tmp_path / "x.evt")
        with pytest.raises(OrderViolation):
            w.add_batch(batch_of((0, [5, 3], [0, 0])))
        with pytest.raises(OrderViolation):
            w.add_batch(batch_of((0, [5, 5], [0, 1])))

    def test_ranges_enforced(self, tmp_path):
        w = EventFileWriter(tmp_path / "x.evt")
        with pytest.raises(RangeViolation):
            w.add_batch(batch_of((0, [0], [0])))
        with pytest.raises(RangeViolation):
            w.add_batch(batch_of((0, [1025], [0])))
        with pytest.raises(RangeViolation):
            w.add_batch(batch_of((0, [1], [255])))
        with pytest.raises(RangeViolation):
            w.add_batch(batch_of((SENTINEL, [1], [0])))

    def test_geometry_limits(self, tmp_path):
        with pytest.raises(RangeViolation):
            EventFileWriter(tmp_path / "a.evt", n_x=33)
        with pytest.raises(RangeViolation):
            EventFileWriter(tmp_path / "b.evt", bins_per_frame=257)
        with pytest.raises(RangeViolation):
            EventFileWriter(tmp_path / "c.evt", mapping_mode="sideways")

    def test_close_must_cover_last_frame(self, tmp_path):
        w = EventFileWriter(tmp_path / "x.evt")
        w.add_batch(batch_of((5, [1], [0])))
        with pytest.raises(RangeViolation):
            w.close(total_frames=2)

    def test_close_refuses_total_beyond_frame_ids(self, tmp_path):
        w = EventFileWriter(tmp_path / "x.evt")
        with pytest.raises(RangeViolation, match="u32 frame ids"):
            w.close(total_frames=SENTINEL + 1)
        assert w.close(total_frames=SENTINEL) == SENTINEL
        assert read_header(tmp_path / "x.evt").total_frames == SENTINEL

    def test_double_close_rejected(self, tmp_path):
        w = EventFileWriter(tmp_path / "x.evt")
        w.close()
        with pytest.raises(InvariantViolation):
            w.close()


class TestReaderErrors:
    def write(self, tmp_path, blob):
        path = tmp_path / "crafted.evt"
        path.write_bytes(blob)
        return path

    def read_all(self, path):
        return list(read_batches(path))

    def test_corrupt_magic(self, tmp_path):
        blob = bytearray(raw_header() + raw_footer(1))
        blob[0] ^= 0x40
        with pytest.raises(BadMagic):
            read_header(self.write(tmp_path, bytes(blob)))

    def test_truncated_header(self, tmp_path):
        with pytest.raises(TruncatedFile):
            read_header(self.write(tmp_path, raw_header()[:10]))

    def test_missing_footer(self, tmp_path):
        with pytest.raises(TruncatedFile):
            read_header(self.write(tmp_path, raw_header()))

    def test_chopped_tail(self, tmp_path):
        blob = raw_header() + raw_frame(0, [(1, 0)] ) + raw_footer(1)
        with pytest.raises(TruncatedFile):
            read_header(self.write(tmp_path, blob[:-1]))

    def test_footer_total_beyond_frame_ids(self, tmp_path):
        # one flipped bit in the top byte would declare 7.2e16 frames
        blob = bytearray(raw_header() + raw_frame(0, [(1, 0)])
                         + raw_footer(1))
        blob[-1] ^= 0x01
        with pytest.raises(RangeViolation, match="u32 frame ids"):
            read_header(self.write(tmp_path, bytes(blob)))
        with pytest.raises(RangeViolation, match="u32 frame ids"):
            read_header(self.write(tmp_path, raw_header()
                                   + raw_footer(SENTINEL + 1)))

    def test_reserved_bytes_checked(self, tmp_path):
        blob = raw_header(reserved=b"\0\1\0") + raw_footer(1)
        with pytest.raises(InvariantViolation):
            read_header(self.write(tmp_path, blob))

    def test_unknown_mode_code(self, tmp_path):
        blob = raw_header(mode=3) + raw_footer(1)
        with pytest.raises(InvariantViolation):
            read_header(self.write(tmp_path, blob))

    def test_zero_tdc_bin(self, tmp_path):
        blob = raw_header(tdc=0) + raw_footer(1)
        with pytest.raises(InvariantViolation):
            read_header(self.write(tmp_path, blob))

    def test_duplicate_pixel_names_frame(self, tmp_path):
        blob = raw_header() + raw_frame(7, [(5, 1), (5, 2)]) + raw_footer(8)
        with pytest.raises(InvariantViolation, match="frame 7"):
            self.read_all(self.write(tmp_path, blob))

    def test_empty_frame_record_rejected(self, tmp_path):
        blob = raw_header() + raw_frame(0, []) + raw_footer(1)
        with pytest.raises(InvariantViolation, match="empty"):
            self.read_all(self.write(tmp_path, blob))

    def test_frame_beyond_declared_total(self, tmp_path):
        blob = raw_header() + raw_frame(9, [(1, 0)]) + raw_footer(5)
        with pytest.raises(RangeViolation):
            self.read_all(self.write(tmp_path, blob))

    def test_unordered_frames_rejected(self, tmp_path):
        blob = (raw_header() + raw_frame(5, [(1, 0)])
                + raw_frame(3, [(1, 0)]) + raw_footer(10))
        with pytest.raises(OrderViolation):
            self.read_all(self.write(tmp_path, blob))

    def test_sentinel_frame_id_rejected(self, tmp_path):
        blob = raw_header() + raw_frame(SENTINEL, [(1, 0)]) + raw_footer(1)
        with pytest.raises(InvariantViolation, match="sentinel"):
            self.read_all(self.write(tmp_path, blob))

    def test_count_exceeding_pixels_rejected(self, tmp_path):
        blob = (raw_header(n_x=2, n_y=2)
                + raw_frame(0, [(1, 0)] * 5) + raw_footer(1))
        with pytest.raises(RangeViolation):
            self.read_all(self.write(tmp_path, blob))

    def test_declared_count_overrunning_footer(self, tmp_path):
        head = struct.pack("<IH", 0, 10) + struct.pack("<HB", 1, 0)
        blob = raw_header() + head + raw_footer(1)
        with pytest.raises(TruncatedFile):
            self.read_all(self.write(tmp_path, blob))

    def test_pixel_and_tdc_range_checked(self, tmp_path):
        blob = raw_header() + raw_frame(0, [(0, 0)]) + raw_footer(1)
        with pytest.raises(RangeViolation):
            self.read_all(self.write(tmp_path, blob))
        blob = raw_header(bins=200) + raw_frame(0, [(1, 254)]) + raw_footer(1)
        with pytest.raises(RangeViolation):
            self.read_all(self.write(tmp_path, blob))

    @pytest.mark.parametrize("frames_per_batch", [0, -2])
    def test_nonpositive_frames_per_batch_rejected(self, tmp_path,
                                                   frames_per_batch):
        # such spans never advance, so the stream would never end
        path = self.write(tmp_path, raw_header() + raw_frame(0, [(1, 0)])
                          + raw_footer(1))
        with pytest.raises(ConfigError, match="frames_per_batch"):
            next(read_batches(path, frames_per_batch))
        with pytest.raises(ConfigError, match="frames_per_batch"):
            accumulate_file(path, frames_per_batch=frames_per_batch)


class TestHeaderFuzz:
    def test_protected_byte_mutations_rejected(self, tmp_path):
        # a stream exercising the top pixel and tdc codes, so shrunken
        # dimensions or bin counts are caught by range checks
        path = tmp_path / "full.evt"
        write_event_file(path, batch_of((0, [1, 512, 1024], [0, 100, 254]),
                                        (3, [1024], [254])))
        good = path.read_bytes()
        protected = list(range(0, 12)) + [16, 17]
        bad = tmp_path / "bad.evt"
        checked = 0
        for pos in protected:
            for delta in (0x01, 0x30, 0x80, 0xFF):
                blob = bytearray(good)
                blob[pos] ^= delta
                bad.write_bytes(bytes(blob))
                with pytest.raises((BadMagic, RangeViolation,
                                    InvariantViolation, TruncatedFile,
                                    OrderViolation)):
                    for _ in read_batches(bad):
                        pass
                checked += 1
        assert checked == 56


def simulated_file(path, n_frames, pairs_per_frame, seed):
    model = DoubleGaussianModel.from_inferred_targets(37.3, 4.0, 37.3, 3.4)
    writer = EventFileWriter(path, mapping_mode="far")
    for batch in simulate_frames(model, OpticalMapping(mode="far"),
                                 SensorConfig(), n_frames,
                                 pairs_per_frame_mean=pairs_per_frame,
                                 seed=seed):
        writer.add_batch(batch)
    writer.close(total_frames=n_frames)


class TestDifferentialDecode:
    """The span decoder against the per-frame reference decoder."""

    def test_every_single_byte_corruption(self, tmp_path, monkeypatch):
        path = tmp_path / "sim.evt"
        simulated_file(path, 150, 0.3, seed=5)
        good = path.read_bytes()
        bad = tmp_path / "bad.evt"
        outcomes = {"rejected": 0, "accepted": 0}
        for pos in range(len(good)):
            for delta in (0x01, 0x80, 0xFF):
                blob = bytearray(good)
                blob[pos] ^= delta
                bad.write_bytes(bytes(blob))
                want = decode_outcome(lambda: oracle_read_batches(bad))
                # 64-byte reads put block boundaries inside heads and events
                for read_bytes in (1 << 20, 64):
                    monkeypatch.setattr(eventfile, "_READ_BYTES", read_bytes)
                    got = decode_outcome(lambda: read_batches(bad))
                    assert got[2] == want[2], (pos, delta, read_bytes)
                    if want[2] is None:
                        assert got == want, (pos, delta, read_bytes)
                outcomes["accepted" if want[2] is None else "rejected"] += 1
        assert sum(outcomes.values()) == 3 * len(good)
        assert min(outcomes.values()) > 0

    @pytest.mark.parametrize("frames_per_batch", [1, 7, 65536])
    def test_random_streams_match_reference(self, tmp_path, monkeypatch,
                                            frames_per_batch):
        monkeypatch.setattr(eventfile, "_READ_BYTES", 100)
        path = tmp_path / "r.evt"
        for seed in range(20):
            rng = np.random.default_rng(3000 + seed)
            batch = random_sparse_batch(rng, n_pix=1024, bins=255,
                                        id_span=60, max_frames=40)
            write_event_file(path, batch, total_frames=60 + seed)
            want = decode_outcome(
                lambda: oracle_read_batches(path, frames_per_batch))
            got = decode_outcome(lambda: read_batches(path, frames_per_batch))
            assert want[2] is None
            assert got == want
            assert_same_events(read_batches(path, frames_per_batch), [batch])

    def test_accumulate_file_batch_size_invisible(self, tmp_path):
        path = tmp_path / "sim.evt"
        simulated_file(path, 3 * 65536 + 100, 0.3, seed=9)
        one = accumulate_file(path, frames_per_batch=65536)
        two = accumulate_file(path, frames_per_batch=1000)
        assert one.n_frames == two.n_frames == 3 * 65536 + 100
        for name in ("g1", "g2", "g2_shifted", "g2_later", "dt_hist"):
            np.testing.assert_array_equal(getattr(one, name),
                                          getattr(two, name))
