import struct

import numpy as np
import pytest

from helpers import batch_of, decode_outcome, frame_groups, \
    oracle_read_batches, random_batch, sequential_head_walk, write_event_file
from spadcorr import eventfile
from spadcorr.correlator import accumulate
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
    EventFileReader,
    EventFileWriter,
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
                for b in EventFileReader(path).iter_batches()] == [(0, 10, 0)]

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
        bounds = [0, 50, 51, 120, 200]
        cut = np.searchsorted(batch.frame_ids, bounds[1:-1])
        pieces = [np.split(c, cut)
                  for c in (batch.frame_ids, batch.pixels, batch.tdc)]
        parts = [FrameBatch(lo, hi - lo, *cols) for lo, hi, cols
                 in zip(bounds, bounds[1:], zip(*pieces))]
        write_event_file(path, parts, total_frames=200)
        assert path.read_bytes() == want


class TestRoundTrip:
    def test_random_streams_round_trip(self, tmp_path):
        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            batch = random_sparse_batch(rng)
            path = tmp_path / f"s{seed}.evt"
            write_event_file(path, batch, total_frames=200)
            back = list(EventFileReader(path).iter_batches())
            assert [(b.start_frame, b.n_frames) for b in back] == [(0, 200)]
            assert_same_events(back, [batch])

    def test_batches_tile_the_frame_range(self, tmp_path, monkeypatch):
        monkeypatch.setattr(eventfile, "_READ_BYTES", 64)   # many blocks
        rng = np.random.default_rng(55)
        batch = random_sparse_batch(rng, id_span=90, max_frames=30)
        path = tmp_path / "tile.evt"
        write_event_file(path, batch, total_frames=100)
        batches = list(EventFileReader(path).iter_batches())
        assert len(batches) > 1
        got = decode_outcome(lambda: batches)
        assert got == decode_outcome(lambda: oracle_read_batches(path, 16))
        assert got[1:] == (100, None)
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
        # the simulator's batches span chunk groups, the reader's one block
        # each: compare the streams, not the batch boundaries
        got = decode_outcome(lambda: EventFileReader(path).iter_batches())
        assert got == decode_outcome(lambda: src)
        assert got == decode_outcome(lambda: oracle_read_batches(path))
        assert got[1:] == (2 * 65536, None)


class TestWriterErrors:
    """The writer's own rules; a batch that breaks FrameBatch's contract is
    refused with MalformedFrame (test_sensor.py, TestFrameBatchContract)."""

    def test_frame_order_enforced(self, tmp_path):
        w = EventFileWriter(tmp_path / "x.evt")
        w.add_batch(batch_of((5, [1], [0])))
        with pytest.raises(OrderViolation):
            w.add_batch(batch_of((5, [2], [0])))
        with pytest.raises(OrderViolation):
            w.add_batch(batch_of((3, [2], [0])))
        w.discard()

    def test_only_frame_batches_encode(self, tmp_path):
        w = EventFileWriter(tmp_path / "x.evt")
        with pytest.raises(MalformedFrame, match="cannot encode"):
            w.add_batch((0, [1], [0]))
        assert w.close() == 0

    def test_id_at_the_sentinel_rejected(self, tmp_path):
        w = EventFileWriter(tmp_path / "x.evt")
        with pytest.raises(RangeViolation, match="sentinel"):
            w.add_batch(batch_of((SENTINEL, [1], [0])))
        assert w.bytes_written == 22
        w.discard()

    def test_geometry_limits(self, tmp_path):
        """A writer's arguments are configuration, refused before the file
        is created."""
        with pytest.raises(ConfigError):
            EventFileWriter(tmp_path / "a.evt", n_x=33)
        with pytest.raises(ConfigError):
            EventFileWriter(tmp_path / "b.evt", bins_per_frame=257)
        with pytest.raises(ConfigError):
            EventFileWriter(tmp_path / "c.evt", mapping_mode="sideways")
        assert not list(tmp_path.iterdir())

    def test_close_must_cover_last_frame(self, tmp_path):
        w = EventFileWriter(tmp_path / "x.evt")
        w.add_batch(batch_of((5, [1], [0])))
        with pytest.raises(RangeViolation):
            w.close(total_frames=2)
        w.discard()

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

    def test_discard_removes_the_partial_file(self, tmp_path):
        path = tmp_path / "x.evt"
        w = EventFileWriter(path)
        w.add_batch(batch_of((5, [1], [0])))
        w.discard()
        assert not path.exists()
        w.discard()     # a no-op once the handle is gone
        with pytest.raises(InvariantViolation):
            w.close()


class TestReaderErrors:
    def write(self, tmp_path, blob):
        path = tmp_path / "crafted.evt"
        path.write_bytes(blob)
        return path

    def read_all(self, path):
        return list(EventFileReader(path).iter_batches())

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

    @pytest.mark.parametrize("field", [dict(n_x=33), dict(n_y=64),
                                       dict(bins=257)])
    def test_geometry_beyond_format_is_data(self, tmp_path, field):
        # the values an EventFileWriter refuses as ConfigError
        blob = raw_header(**field) + raw_footer(1)
        with pytest.raises(RangeViolation, match="format v1 limits"):
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
                    for _ in EventFileReader(bad).iter_batches():
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
                    got = decode_outcome(
                        lambda: EventFileReader(bad).iter_batches())
                    assert got == want, (pos, delta, read_bytes)
                outcomes["accepted" if want[2] is None else "rejected"] += 1
        assert sum(outcomes.values()) == 3 * len(good)
        assert min(outcomes.values()) > 0

    @pytest.mark.parametrize("frames_per_batch", [1, 7, 65536])
    def test_random_streams_match_reference(self, tmp_path, monkeypatch,
                                            frames_per_batch):
        """However the reference cuts its batches, the streams agree."""
        monkeypatch.setattr(eventfile, "_READ_BYTES", 100)
        path = tmp_path / "r.evt"
        for seed in range(20):
            rng = np.random.default_rng(3000 + seed)
            batch = random_sparse_batch(rng, n_pix=1024, bins=255,
                                        id_span=60, max_frames=40)
            write_event_file(path, batch, total_frames=60 + seed)
            want = decode_outcome(
                lambda: oracle_read_batches(path, frames_per_batch))
            got = decode_outcome(lambda: EventFileReader(path).iter_batches())
            assert want[2] is None
            assert got == want
            assert_same_events(EventFileReader(path).iter_batches(), [batch])

    def test_accumulate_file_batch_size_invisible(self, tmp_path, monkeypatch):
        path = tmp_path / "sim.evt"
        simulated_file(path, 3 * 65536 + 100, 0.3, seed=9)
        want = accumulate(oracle_read_batches(path, 1000), mapping_mode="far")
        for read_bytes in (1 << 20, 4096):
            monkeypatch.setattr(eventfile, "_READ_BYTES", read_bytes)
            got = accumulate_file(path)
            assert got.n_frames == want.n_frames == 3 * 65536 + 100
            for name in ("g1", "g2", "g2_shifted", "g2_later", "dt_hist"):
                np.testing.assert_array_equal(getattr(got, name),
                                              getattr(want, name))


class TestBlockBatches:
    """The reader yields one batch per decoded block."""

    def test_huge_declared_total_is_one_batch(self, tmp_path):
        # 1 event in 0xFF000096 declared frames: no batch per frame span
        path = tmp_path / "huge.evt"
        total = 0xFF000096
        assert write_event_file(path, batch_of((150, [5], [7])),
                                total_frames=total) == 45
        assert [(b.start_frame, b.n_frames, b.n_events)
                for b in EventFileReader(path).iter_batches()] == [
                    (0, 4278190230, 1)]
        assert accumulate_file(path).n_frames == 4278190230

    @pytest.mark.parametrize("n_side, read_bytes", [(4, 64), (32, 100),
                                                    (32, 4096)])
    def test_batches_are_bounded_by_the_block(self, tmp_path, monkeypatch,
                                              n_side, read_bytes):
        """Dense streams tile [0, total) with every id in its batch's span
        (decode_outcome), and no batch holds more than a block's events
        plus one frame carried over from the block before."""
        monkeypatch.setattr(eventfile, "_READ_BYTES", read_bytes)
        n_pix = n_side * n_side
        bound = (read_bytes + 3 * (2 + n_pix)) // 3   # in 3-byte events
        path = tmp_path / "dense.evt"
        for seed in range(5):
            rng = np.random.default_rng(4000 + seed)
            batch = random_batch(rng, 40, n_pix, 255, max_events=n_pix,
                                 p_empty=0.1)
            write_event_file(path, batch, total_frames=40, n_x=n_side,
                             n_y=n_side)
            batches = list(EventFileReader(path).iter_batches())
            assert decode_outcome(lambda: batches) == \
                decode_outcome(lambda: [batch])
            assert max(b.n_events for b in batches) <= bound < batch.n_events


def head_walk(buf):
    starts, end = eventfile._walk_heads(eventfile._head_fields(buf)[1])
    assert starts.dtype == np.int64
    return starts.tolist(), end


def frame_body(path):
    return path.read_bytes()[len(raw_header()):-len(raw_footer(0))]


class TestHeadWalk:
    """The vectorized head walk against a walk stepped head by head."""

    @pytest.mark.parametrize("seed", [5, 6])
    def test_simulated_blocks_and_every_cut(self, tmp_path, seed):
        path = tmp_path / "sim.evt"
        simulated_file(path, 400, 0.5, seed=seed)
        body = frame_body(path)
        starts, end = head_walk(body)
        assert 3 * end == len(body) and len(starts) > 100
        # every cut ends the block inside a head, inside events or on a
        # frame boundary
        for cut in range(len(body) + 1):
            assert head_walk(body[:cut]) == sequential_head_walk(body[:cut])

    def test_random_bytes(self):
        rng = np.random.default_rng(17)
        for size in (6, 7, 8, 100, 3000, 65537):
            for _ in range(5):
                blob = rng.bytes(size)
                assert head_walk(blob) == sequential_head_walk(blob), size

    def test_random_bytes_with_small_counts(self):
        # a unit's count is its bytes 4 and 5, which are 1 and 2 mod 3, so
        # these fix every unit's count to 0..3: chains of many frames
        rng = np.random.default_rng(18)
        for size in (9, 1000, 3 * 65536 + 2):
            blob = bytearray(rng.bytes(size))
            blob[1::3] = rng.integers(0, 4, len(blob[1::3]),
                                      dtype=np.uint8).tobytes()
            blob[2::3] = bytes(len(blob[2::3]))
            walk = head_walk(bytes(blob))
            assert walk == sequential_head_walk(bytes(blob))
            assert len(walk[0]) > size // 18

    @pytest.mark.parametrize("units", [2, 3, 10, 101])
    @pytest.mark.parametrize("extra_bytes", [0, 1, 2])
    def test_counts_around_the_block_end(self, units, extra_bytes):
        # a head at unit 0 whose next head lands anywhere from the last
        # unit a head fits in to far past the block; every later unit
        # counts 0xFFFF events, so the chain ends one head after that
        size = 3 * units + extra_bytes
        last_fit = (size - 6) // 3
        for count in [*range(max(0, last_fit - 4), units + 2), 0xFFFF]:
            blob = bytearray(b"\xff" * size)
            blob[4:6] = struct.pack("<H", count)
            walk = head_walk(bytes(blob))
            assert walk == sequential_head_walk(bytes(blob))
            assert walk[0] == [0, 2 + count][:1 + (2 + count <= last_fit)]
        # a chain of empty heads that lands on the last unit exactly
        blob = bytes(3 * (2 * units + 2))
        assert head_walk(blob) == (list(range(0, 2 * units + 1, 2)),
                                   2 * units + 2)

    def test_buffers_shorter_than_a_head(self):
        for size in range(6):
            assert head_walk(bytes(size)) == ([], 0)
            assert sequential_head_walk(bytes(size)) == ([], 0)
        assert head_walk(struct.pack("<IH", 9, 4)) == ([0], 6)

    def test_block_with_its_last_frame_cut(self):
        body = b"".join(raw_frame(fid, [(fid + 1, 7)] * 3) for fid in range(5))
        cut = body[:-4]
        assert head_walk(cut) == sequential_head_walk(cut) == (
            [0, 5, 10, 15, 20], 25)
        assert 3 * 25 > len(cut)
