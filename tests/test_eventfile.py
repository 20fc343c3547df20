import struct

import numpy as np
import pytest

from helpers import decode_outcome, oracle_read_batches
from spadcorr import eventfile
from spadcorr.errors import (
    BadMagic,
    InvariantViolation,
    OrderViolation,
    RangeViolation,
    TruncatedFile,
)
from spadcorr.eventfile import (
    MAGIC,
    EventFileReader,
    EventFileWriter,
    read_batches,
    read_header,
    write_events,
)
from spadcorr.optics import DoubleGaussianModel, OpticalMapping
from spadcorr.pipeline import accumulate_file
from spadcorr.sensor import Frame, SensorConfig, frames_to_batch, simulate_frames

SENTINEL = 0xFFFFFFFF


def make_frame(fid, pixels, tdcs):
    ev = np.stack([np.asarray(pixels, dtype=np.uint16),
                   np.asarray(tdcs, dtype=np.uint16)], axis=1)
    return Frame(frame_id=fid, events=ev)


def random_frames(rng, n_pix=1024, bins=255, id_span=200, max_frames=40):
    n = int(rng.integers(0, max_frames))
    ids = np.sort(rng.choice(id_span, size=n, replace=False))
    frames = []
    for fid in ids:
        k = int(rng.integers(1, 8))
        pix = np.sort(rng.choice(np.arange(1, n_pix + 1), size=k,
                                 replace=False))
        tdc = rng.integers(0, bins, k)
        frames.append(make_frame(int(fid), pix, tdc))
    return frames


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
        n = write_events(path, [], total_frames=10)
        assert n == 36
        assert path.stat().st_size == 36
        hdr = read_header(path)
        assert hdr.total_frames == 10
        assert hdr.n_x == hdr.n_y == 32
        assert hdr.bins_per_frame == 255
        assert list(EventFileReader(path).iter_frames()) == []

    def test_single_event_bytes_match_layout(self, tmp_path):
        path = tmp_path / "one.evt"
        n = write_events(path, [make_frame(3, [5], [7])])
        expected = raw_header() + raw_frame(3, [(5, 7)]) + raw_footer(4)
        assert path.read_bytes() == expected
        assert n == len(expected) == 45

    def test_mode_codes_on_wire(self, tmp_path):
        for mode, code in (("far", 0), ("near", 1), ("unspecified", 2)):
            path = tmp_path / f"{mode}.evt"
            write_events(path, [make_frame(0, [1], [0])], mapping_mode=mode)
            assert path.read_bytes()[18] == code
            assert read_header(path).mapping_mode == mode

    def test_write_is_deterministic(self, tmp_path):
        frames = random_frames(np.random.default_rng(8))
        a, b = tmp_path / "a.evt", tmp_path / "b.evt"
        write_events(a, frames)
        write_events(b, frames)
        assert a.read_bytes() == b.read_bytes()

    def test_batch_writer_matches_frame_writer(self, tmp_path):
        frames = random_frames(np.random.default_rng(13))
        total = frames[-1].frame_id + 1
        a, b = tmp_path / "a.evt", tmp_path / "b.evt"
        write_events(a, frames, total_frames=total)
        write_events(b, frames_to_batch(frames, 0, total),
                     total_frames=total)
        assert a.read_bytes() == b.read_bytes()


class TestRoundTrip:
    def test_random_streams_round_trip(self, tmp_path):
        for seed in range(30):
            rng = np.random.default_rng(1000 + seed)
            frames = random_frames(rng)
            path = tmp_path / f"s{seed}.evt"
            write_events(path, frames, total_frames=200)
            back = list(EventFileReader(path).iter_frames())
            assert len(back) == len(frames)
            for src, got in zip(frames, back):
                assert got.frame_id == src.frame_id
                np.testing.assert_array_equal(got.events, src.events)

    def test_batches_tile_the_frame_range(self, tmp_path):
        rng = np.random.default_rng(55)
        frames = random_frames(rng, id_span=90, max_frames=30)
        path = tmp_path / "tile.evt"
        write_events(path, frames, total_frames=100)
        batches = list(read_batches(path, frames_per_batch=16))
        assert [b.start_frame for b in batches] == list(range(0, 100, 16))
        assert sum(b.n_frames for b in batches) == 100
        got = [fr for b in batches for fr in b.iter_frames()]
        assert [fr.frame_id for fr in got] == [fr.frame_id for fr in frames]
        for src, back in zip(frames, got):
            np.testing.assert_array_equal(back.events, src.events)

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
        assert len(back) == len(src)
        for a, b in zip(src, back):
            np.testing.assert_array_equal(a.frame_ids, b.frame_ids)
            np.testing.assert_array_equal(a.pixels, b.pixels)
            np.testing.assert_array_equal(a.tdc, b.tdc)


class TestWriterErrors:
    def test_frame_order_enforced(self, tmp_path):
        w = EventFileWriter(tmp_path / "x.evt")
        w.add_frame(5, [1], [0])
        with pytest.raises(OrderViolation):
            w.add_frame(5, [2], [0])
        with pytest.raises(OrderViolation):
            w.add_frame(3, [2], [0])

    def test_pixel_order_enforced(self, tmp_path):
        w = EventFileWriter(tmp_path / "x.evt")
        with pytest.raises(OrderViolation):
            w.add_frame(0, [5, 3], [0, 0])
        with pytest.raises(OrderViolation):
            w.add_frame(0, [5, 5], [0, 1])

    def test_ranges_enforced(self, tmp_path):
        w = EventFileWriter(tmp_path / "x.evt")
        with pytest.raises(RangeViolation):
            w.add_frame(0, [0], [0])
        with pytest.raises(RangeViolation):
            w.add_frame(0, [1025], [0])
        with pytest.raises(RangeViolation):
            w.add_frame(0, [1], [255])
        with pytest.raises(RangeViolation):
            w.add_frame(SENTINEL, [1], [0])

    def test_geometry_limits(self, tmp_path):
        with pytest.raises(RangeViolation):
            EventFileWriter(tmp_path / "a.evt", n_x=33)
        with pytest.raises(RangeViolation):
            EventFileWriter(tmp_path / "b.evt", bins_per_frame=257)
        with pytest.raises(RangeViolation):
            EventFileWriter(tmp_path / "c.evt", mapping_mode="sideways")

    def test_close_must_cover_last_frame(self, tmp_path):
        w = EventFileWriter(tmp_path / "x.evt")
        w.add_frame(5, [1], [0])
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
        return list(EventFileReader(path).iter_frames())

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


class TestHeaderFuzz:
    def test_protected_byte_mutations_rejected(self, tmp_path):
        # a stream exercising the top pixel and tdc codes, so shrunken
        # dimensions or bin counts are caught by range checks
        path = tmp_path / "full.evt"
        write_events(path, [make_frame(0, [1, 512, 1024], [0, 100, 254]),
                            make_frame(3, [1024], [254])])
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
                    for _ in EventFileReader(bad).iter_frames():
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
            frames = random_frames(rng, n_pix=1024, bins=255, id_span=60,
                                   max_frames=40)
            write_events(path, frames, total_frames=60 + seed)
            want = decode_outcome(
                lambda: oracle_read_batches(path, frames_per_batch))
            got = decode_outcome(lambda: read_batches(path, frames_per_batch))
            assert want[2] is None
            assert got == want
            back = list(EventFileReader(path).iter_frames())
            assert [fr.frame_id for fr in back] == \
                [fr.frame_id for fr in frames]
            for src, fr in zip(frames, back):
                np.testing.assert_array_equal(fr.events, src.events)

    def test_accumulate_file_worker_count(self, tmp_path):
        path = tmp_path / "sim.evt"
        simulated_file(path, 3 * 65536 + 100, 0.3, seed=9)
        one = accumulate_file(path, workers=1, frames_per_batch=65536)
        two = accumulate_file(path, workers=2, frames_per_batch=65536)
        assert one.n_frames == two.n_frames == 3 * 65536 + 100
        for name in ("g1", "g2", "g2_shifted", "g2_later", "dt_hist"):
            np.testing.assert_array_equal(getattr(one, name),
                                          getattr(two, name))
