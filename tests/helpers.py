"""Brute-force reference implementations shared by the test modules."""

import hashlib
import struct

import numpy as np

from spadcorr.correlator import CorrelationAccumulator
from spadcorr.errors import (
    InvariantViolation,
    SpadError,
    OrderViolation,
    RangeViolation,
    TruncatedFile,
)
from spadcorr.eventfile import read_header
from spadcorr.sensor import Frame, FrameBatch


def random_event_frames(rng, n_frames, n_pix, bins, max_events=8,
                        p_empty=0.2):
    """Random valid Frame list; empty frames are skipped (ids stay gapped)."""
    frames = []
    for fid in range(n_frames):
        if rng.random() < p_empty:
            continue
        k = int(rng.integers(1, max_events + 1))
        k = min(k, n_pix)
        pix = np.sort(rng.choice(np.arange(1, n_pix + 1), size=k,
                                 replace=False))
        tdc = rng.integers(0, bins, k)
        ev = np.stack([pix.astype(np.uint16), tdc.astype(np.uint16)], axis=1)
        frames.append(Frame(frame_id=fid, events=ev))
    return frames


def quadratic_accumulate(frames, n_x, n_y, bins, window, shift,
                         n_frames=None):
    """Reference accumulator built from plain nested loops over event pairs."""
    n_pix = n_x * n_y
    acc = CorrelationAccumulator(n_x=n_x, n_y=n_y, bins_per_frame=bins,
                                 window=window, shift=shift)
    acc.n_frames = len(frames) if n_frames is None else n_frames
    half = bins - 1
    for fr in frames:
        events = [(int(p), int(t)) for p, t in fr.events]
        for p, _ in events:
            acc.g1[p - 1] += 1
        for i, (p1, t1) in enumerate(events):
            for j, (p2, t2) in enumerate(events):
                if i == j:
                    continue
                dt = t1 - t2
                acc.dt_hist[dt + half] += 1
                if abs(dt) <= window:
                    acc.g2[p1 - 1, p2 - 1] += 1
                    if t2 > t1:
                        acc.g2_later[p1 - 1, p2 - 1] += 1
                if abs(abs(dt) - shift) <= window:
                    acc.g2_shifted[p1 - 1, p2 - 1] += 1
    return acc


def quadruple_loop_projections(values, n_x, n_y):
    """Axis and sum/diff projections via explicit quadruple loops."""
    t = np.asarray(values).reshape(n_y, n_x, n_y, n_x)
    g2x = np.zeros((n_x, n_x))
    g2y = np.zeros((n_y, n_y))
    sum_map = np.zeros((2 * n_x - 1, 2 * n_y - 1))
    diff_map = np.zeros((2 * n_x - 1, 2 * n_y - 1))
    for y1 in range(n_y):
        for x1 in range(n_x):
            for y2 in range(n_y):
                for x2 in range(n_x):
                    v = t[y1, x1, y2, x2]
                    g2x[x1, x2] += v
                    g2y[y1, y2] += v
                    sum_map[x1 + x2, y1 + y2] += v
                    diff_map[x1 - x2 + n_x - 1, y1 - y2 + n_y - 1] += v
    return g2x, g2y, sum_map, diff_map


def oracle_iter_frames(path):
    """Reference event-file decoder: one Python iteration per stored frame.

    Validates each frame in the format's check order and raises at the
    first faulty one, after yielding the frames before it.
    """
    hdr = read_header(path)
    n_pix = hdr.n_pixels
    with open(path, "rb") as fh:
        fh.seek(0, 2)
        end = fh.tell() - 14
        fh.seek(22)
        last_id = -1
        while fh.tell() < end:
            if fh.tell() + 6 > end:
                raise TruncatedFile("frame header runs into the footer")
            fid, count = struct.unpack("<IH", fh.read(6))
            if fid == 0xFFFFFFFF:
                raise InvariantViolation("sentinel before the footer")
            if fid <= last_id:
                raise OrderViolation(f"frame {fid} after frame {last_id}")
            if fid >= hdr.total_frames:
                raise RangeViolation(
                    f"frame id {fid} beyond declared total "
                    f"{hdr.total_frames}")
            if count == 0:
                raise InvariantViolation("empty frames must be omitted")
            if count > n_pix:
                raise RangeViolation(
                    f"{count} events on {n_pix} single-hit pixels")
            if fh.tell() + 3 * count > end:
                raise TruncatedFile("events run into the footer")
            rec = np.frombuffer(fh.read(3 * count),
                                dtype=[("pixel", "<u2"), ("tdc", "u1")])
            pixels = rec["pixel"].astype(np.int64)
            tdc = rec["tdc"].astype(np.int64)
            if pixels[0] < 1 or pixels[-1] > n_pix:
                raise RangeViolation("pixel index outside the array")
            if np.any(np.diff(pixels) <= 0):
                raise InvariantViolation(
                    f"frame {fid}: duplicate or unsorted pixel")
            if np.any(tdc >= hdr.bins_per_frame):
                raise RangeViolation("tdc code outside the frame")
            ev = np.stack([pixels.astype(np.uint16),
                           tdc.astype(np.uint16)], axis=1)
            last_id = fid
            yield Frame(frame_id=fid, events=ev)


def oracle_read_batches(path, frames_per_batch=65536):
    """Reference batching of oracle_iter_frames into spans tiling the file."""
    total = read_header(path).total_frames
    span = 0
    fids, pixels, tdcs = [], [], []

    def flush(span):
        n = min(frames_per_batch, total - span * frames_per_batch)
        batch = FrameBatch(
            start_frame=span * frames_per_batch, n_frames=n,
            frame_ids=(np.concatenate(fids) if fids
                       else np.empty(0, dtype=np.int64)),
            pixels=(np.concatenate(pixels) if pixels
                    else np.empty(0, dtype=np.uint16)),
            tdc=(np.concatenate(tdcs) if tdcs
                 else np.empty(0, dtype=np.uint8)))
        fids.clear()
        pixels.clear()
        tdcs.clear()
        return batch

    for frame in oracle_iter_frames(path):
        while frame.frame_id >= (span + 1) * frames_per_batch:
            yield flush(span)
            span += 1
        fids.append(np.full(len(frame.events), frame.frame_id,
                            dtype=np.int64))
        pixels.append(frame.events[:, 0].astype(np.uint16))
        tdcs.append(frame.events[:, 1].astype(np.uint8))
    while span * frames_per_batch < total:
        yield flush(span)
        span += 1


def decode_outcome(make_batches):
    """(batch count, digest of every batch's fields, error) of a stream.

    The error is (class, message), or None when the stream ran to the end.
    ``make_batches`` is called inside the guard, so an error raised while
    opening the file counts too. Decoders may yield a different number of
    batches before the same error, so compare the batches only when the
    error is None.
    """
    digest = hashlib.sha256()
    n = 0
    try:
        for b in make_batches():
            cols = (b.frame_ids, b.pixels, b.tdc)
            digest.update(repr((b.start_frame, b.n_frames)
                               + tuple((c.dtype.str, c.size) for c in cols))
                          .encode())
            if b.n_events:
                for c in cols:
                    digest.update(np.ascontiguousarray(c).tobytes())
            n += 1
    except SpadError as exc:
        return n, digest.hexdigest(), (type(exc), str(exc))
    return n, digest.hexdigest(), None
