"""Binary time-tag container for SPAD frame streams.

Layout (all little-endian), format tag "SPADEVT1":

    header   <8sHHIHB3s   magic, n_x, n_y, tdc_bin_ps, bins_per_frame,
                          mapping code, 3 reserved zero bytes     (22 bytes)
    frames   <IH          frame id, event count, then per event
             <HB          linear pixel (1-based), tdc code
    footer   <IHQ         0xFFFFFFFF sentinel, 0, total frame count (14 bytes)

Frames with no events are omitted; the footer carries the true exposure
count so rates stay normalizable. Frame ids must increase strictly and stay
below the sentinel, so the total is at most 2**32 - 1. Within a frame,
events are sorted by pixel and each pixel appears at most once (the sensor
is single-hit per exposure). Readers decode span by span and raise the
error of the first faulty frame, checked in the order _decode_span lists.

Version 1 caps the geometry at 32x32 pixels and 256 bins. Together with the
ordering rules this makes every single-byte corruption of the magic, the
dimensions or the bin count detectable on files that exercise the top pixel
and tdc codes.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagic,
    InvariantViolation,
    OrderViolation,
    RangeViolation,
    TruncatedFile,
)
from .sensor import Frame, FrameBatch

MAGIC = b"SPADEVT1"
_HEADER = struct.Struct("<8sHHIHB3s")
_FRAME_HEAD = struct.Struct("<IH")
_FOOTER = struct.Struct("<IHQ")
_EVENT_DTYPE = np.dtype([("pixel", "<u2"), ("tdc", "u1")])
_HEAD_DTYPE = np.dtype([("fid", "<u4"), ("n", "<u2")])
_UNIT = _EVENT_DTYPE.itemsize   # frame heads and events are 2 and 1 units
_SENTINEL = 0xFFFFFFFF
_READ_BYTES = 1 << 20
_NO_EVENTS = (np.empty(0, np.int64), np.empty(0, np.uint16),
              np.empty(0, np.uint8))   # FrameBatch event column dtypes

MAX_DIM = 32
MAX_BINS = 256

_MODE_CODES = {"far": 0, "near": 1, "unspecified": 2}
_CODE_MODES = {v: k for k, v in _MODE_CODES.items()}


@dataclass(frozen=True)
class EventFileHeader:
    n_x: int
    n_y: int
    tdc_bin_ps: int
    bins_per_frame: int
    mapping_mode: str
    total_frames: int

    @property
    def n_pixels(self) -> int:
        return self.n_x * self.n_y


def _validate_geometry(n_x, n_y, bins_per_frame):
    if not (1 <= n_x <= MAX_DIM and 1 <= n_y <= MAX_DIM):
        raise RangeViolation(f"array {n_x}x{n_y} outside format v1 limits")
    if not (1 <= bins_per_frame <= MAX_BINS):
        raise RangeViolation(f"{bins_per_frame} bins outside format v1 limits")


class EventFileWriter:
    """Streaming writer; frames must arrive in strictly increasing id order."""

    def __init__(self, path, n_x=32, n_y=32, tdc_bin_ps=205,
                 bins_per_frame=255, mapping_mode="unspecified"):
        _validate_geometry(n_x, n_y, bins_per_frame)
        if mapping_mode not in _MODE_CODES:
            raise RangeViolation(f"unknown mapping mode {mapping_mode!r}")
        self.n_x = n_x
        self.n_y = n_y
        self.bins_per_frame = bins_per_frame
        self._last_id = -1
        self._stored = 0
        self.bytes_written = 0
        self._fh = open(path, "wb")
        self._put(_HEADER.pack(MAGIC, n_x, n_y, int(round(tdc_bin_ps)),
                               bins_per_frame,
                               _MODE_CODES[mapping_mode], b"\0\0\0"))

    def _put(self, blob) -> None:
        self._fh.write(blob)
        self.bytes_written += len(blob)

    def add_frame(self, frame_id: int, pixels, tdc) -> None:
        pixels = np.asarray(pixels)
        tdc = np.asarray(tdc)
        if pixels.size == 0:
            return
        if frame_id <= self._last_id:
            raise OrderViolation(
                f"frame {frame_id} after frame {self._last_id}")
        if frame_id >= _SENTINEL:
            raise RangeViolation("frame id collides with the footer sentinel")
        n_pix = self.n_x * self.n_y
        if np.any(pixels < 1) or np.any(pixels > n_pix):
            raise RangeViolation("pixel index outside the array")
        if np.any(tdc < 0) or np.any(tdc >= self.bins_per_frame):
            raise RangeViolation("tdc code outside the frame")
        if np.any(np.diff(pixels.astype(np.int64)) <= 0):
            raise OrderViolation("events must be sorted by pixel, no repeats")
        rec = np.empty(pixels.size, dtype=_EVENT_DTYPE)
        rec["pixel"] = pixels
        rec["tdc"] = tdc
        self._put(_FRAME_HEAD.pack(frame_id, pixels.size))
        self._put(rec.tobytes())
        self._last_id = frame_id
        self._stored += 1

    def add_batch(self, batch: FrameBatch) -> None:
        """Encode a whole batch in one pass; same bytes as add_frame."""
        if batch.n_events == 0:
            return
        f = np.asarray(batch.frame_ids, dtype=np.int64)
        p = np.asarray(batch.pixels, dtype=np.int64)
        t = np.asarray(batch.tdc, dtype=np.int64)
        ids, starts = np.unique(f, return_index=True)
        if ids[0] <= self._last_id:
            raise OrderViolation(
                f"frame {ids[0]} after frame {self._last_id}")
        if ids[-1] >= _SENTINEL:
            raise RangeViolation("frame id collides with the footer sentinel")
        n_pix = self.n_x * self.n_y
        if p[0] < 1 or np.any(p > n_pix) or np.any(p < 1):
            raise RangeViolation("pixel index outside the array")
        if np.any(t < 0) or np.any(t >= self.bins_per_frame):
            raise RangeViolation("tdc code outside the frame")
        same = np.ones(f.size, dtype=bool)
        same[starts] = False
        if np.any((np.diff(p) <= 0) & same[1:]):
            raise OrderViolation("events must be sorted by pixel, no repeats")
        counts = np.diff(np.append(starts, f.size))
        if np.any(counts > n_pix):
            raise RangeViolation("more events than single-hit pixels")
        k = ids.size
        rec_start = 6 * np.arange(k, dtype=np.int64) \
            + 3 * (starts - starts[0])
        out = np.empty(6 * k + 3 * f.size, dtype=np.uint8)
        head = np.empty(k, dtype=[("fid", "<u4"), ("n", "<u2")])
        head["fid"] = ids
        head["n"] = counts
        out[(rec_start[:, None] + np.arange(6)).ravel()] = \
            head.view(np.uint8)
        ev = np.empty(f.size, dtype=_EVENT_DTYPE)
        ev["pixel"] = p
        ev["tdc"] = t
        ev_start = rec_start[np.repeat(np.arange(k), counts)] + 6 \
            + 3 * (np.arange(f.size) - np.repeat(starts, counts))
        out[(ev_start[:, None] + np.arange(3)).ravel()] = \
            ev.view(np.uint8).reshape(-1, 3).ravel()
        self._put(out.tobytes())
        self._last_id = int(ids[-1])
        self._stored += k

    def close(self, total_frames=None) -> int:
        if self._fh is None:
            raise InvariantViolation("writer already closed")
        total = self._last_id + 1 if total_frames is None else int(total_frames)
        if total <= self._last_id:
            raise RangeViolation(
                f"total {total} does not cover last frame {self._last_id}")
        if total > _SENTINEL:
            raise RangeViolation(f"total {total} beyond the u32 frame ids")
        self._put(_FOOTER.pack(_SENTINEL, 0, total))
        self._fh.close()
        self._fh = None
        return total


def write_events(path, frames, *, n_x=32, n_y=32, tdc_bin_ps=205,
                 bins_per_frame=255, mapping_mode="unspecified",
                 total_frames=None) -> int:
    """Write Frame objects or FrameBatches; returns the byte count written."""
    writer = EventFileWriter(path, n_x=n_x, n_y=n_y, tdc_bin_ps=tdc_bin_ps,
                             bins_per_frame=bins_per_frame,
                             mapping_mode=mapping_mode)
    if isinstance(frames, (Frame, FrameBatch)):
        frames = [frames]
    for item in frames:
        if isinstance(item, FrameBatch):
            writer.add_batch(item)
        else:
            writer.add_frame(item.frame_id, item.events[:, 0],
                             item.events[:, 1])
    writer.close(total_frames)
    return writer.bytes_written


def read_header(path) -> EventFileHeader:
    """Parse and validate the header and footer without touching frames."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise TruncatedFile("file shorter than the header")
        magic, n_x, n_y, tdc_ps, bins, mode_code, reserved = \
            _HEADER.unpack(head)
        if magic != MAGIC:
            raise BadMagic(f"bad magic {magic!r}")
        if reserved != b"\0\0\0":
            raise InvariantViolation("reserved header bytes are not zero")
        _validate_geometry(n_x, n_y, bins)
        if mode_code not in _CODE_MODES:
            raise InvariantViolation(f"unknown mapping code {mode_code}")
        if tdc_ps == 0:
            raise InvariantViolation("tdc bin of zero picoseconds")
        fh.seek(0, 2)
        size = fh.tell()
        if size < _HEADER.size + _FOOTER.size:
            raise TruncatedFile("file has no room for a footer")
        fh.seek(-_FOOTER.size, 2)
        sentinel, zero, total = _FOOTER.unpack(fh.read(_FOOTER.size))
        if sentinel != _SENTINEL or zero != 0:
            raise TruncatedFile("footer sentinel missing")
        if total > _SENTINEL:
            raise RangeViolation(f"total {total} beyond the u32 frame ids")
    return EventFileHeader(n_x=n_x, n_y=n_y, tdc_bin_ps=tdc_ps,
                           bins_per_frame=bins,
                           mapping_mode=_CODE_MODES[mode_code],
                           total_frames=total)


class EventFileReader:
    """Validating span decoder; the header and footer are checked up front."""

    def __init__(self, path):
        self.path = path
        self.header = read_header(path)

    def iter_frames(self):
        """Yield Frame objects in stored order, validating as it goes."""
        for batch in self.iter_batches():
            yield from batch.iter_frames()

    def iter_batches(self, frames_per_batch: int = 65536):
        """Yield FrameBatch spans that tile [0, total_frames) exactly."""
        total = self.header.total_frames
        span = 0
        parts = []

        def flush():
            n = min(frames_per_batch, total - span * frames_per_batch)
            cols = [np.concatenate(c) for c in zip(_NO_EVENTS, *parts)]
            parts.clear()
            return FrameBatch(span * frames_per_batch, n, *cols)

        for cols in self._decode_blocks():
            while cols[0].size:
                k = np.searchsorted(cols[0], (span + 1) * frames_per_batch)
                parts.append([c[:k] for c in cols])
                cols = [c[k:] for c in cols]
                if cols[0].size:
                    yield flush()
                    span += 1
        while span * frames_per_batch < total:
            yield flush()
            span += 1

    def _decode_blocks(self):
        """Yield validated (frame id, pixel, tdc) event columns per block."""
        last_id = -1
        unpack = _FRAME_HEAD.unpack_from
        with open(self.path, "rb") as fh:
            left = os.fstat(fh.fileno()).st_size - _HEADER.size - _FOOTER.size
            fh.seek(_HEADER.size)
            buf = b""
            while True:
                block = fh.read(min(_READ_BYTES, left))
                left = left - len(block) if block else 0   # file shrank
                buf += block
                starts, u, size = [], 0, len(buf)
                while _UNIT * u + _FRAME_HEAD.size <= size:
                    starts.append(u)
                    u += 2 + unpack(buf, _UNIT * u)[1]
                if _UNIT * u > size and left:   # the last frame continues
                    u = starts.pop()
                head_cut = not left and _UNIT * u < size
                if starts or head_cut:
                    cols = _decode_span(buf, starts, head_cut, self.header,
                                        last_id)
                    last_id = int(cols[0][-1])
                    yield cols
                if not left:
                    return
                buf = buf[_UNIT * u:]


def _decode_span(buf, starts, head_cut, hdr, last_id):
    """Gather and validate the frames starting at the given 3-byte units.

    Raises the error of the first faulty frame, its checks taken in the
    order listed here; ``head_cut`` marks one more head cut by the footer.
    """
    units = np.frombuffer(buf, dtype=_EVENT_DTYPE, count=len(buf) // _UNIT)
    at = np.array(starts, dtype=np.int64)
    heads = np.frombuffer(buf, dtype=np.uint8)[
        _UNIT * at[:, None] + np.arange(_FRAME_HEAD.size)].view(_HEAD_DTYPE)
    fid, count = (heads[f][:, 0].astype(np.int64) for f in ("fid", "n"))
    whole = np.where(at + 2 + count <= units.size, count, 0)
    offs = np.cumsum(whole) - whole
    ev = units[np.repeat(at + 2 - offs, whole) + np.arange(whole.sum())]
    pixels = ev["pixel"].astype(np.int64)
    frame_of = np.repeat(np.arange(at.size), whole)
    prev = np.concatenate(([last_id], fid))[:-1]
    has = np.flatnonzero(whole)
    first, last = pixels[offs[has]], pixels[offs[has] + whole[has] - 1]
    n_pix = hdr.n_pixels
    unsorted = (np.diff(pixels) <= 0) & (frame_of[1:] == frame_of[:-1])
    checks = (   # ascending indices of the frames failing each check
        (np.flatnonzero(fid == _SENTINEL), InvariantViolation,
         "sentinel before the footer"),
        (np.flatnonzero(fid <= prev), OrderViolation,
         "frame {fid} after frame {prev}"),
        (np.flatnonzero(fid >= hdr.total_frames), RangeViolation,
         "frame id {fid} beyond declared total {total}"),
        (np.flatnonzero(count == 0), InvariantViolation,
         "empty frames must be omitted"),
        (np.flatnonzero(count > n_pix), RangeViolation,
         "{count} events on {n_pix} single-hit pixels"),
        (np.flatnonzero(whole < count), TruncatedFile,
         "events run into the footer"),
        (has[(first < 1) | (last > n_pix)], RangeViolation,
         "pixel index outside the array"),
        (frame_of[1:][unsorted], InvariantViolation,
         "frame {fid}: duplicate or unsorted pixel"),
        (frame_of[ev["tdc"] >= hdr.bins_per_frame], RangeViolation,
         "tdc code outside the frame"),
    )
    failed = [(int(where[0]), k) for k, (where, _, _) in enumerate(checks)
              if where.size]
    if failed:
        i, k = min(failed)
        raise checks[k][1](checks[k][2].format(
            fid=fid[i], prev=prev[i], count=count[i], total=hdr.total_frames,
            n_pix=n_pix))
    if head_cut:
        raise TruncatedFile("frame header runs into the footer")
    return (np.repeat(fid, whole), pixels.astype(np.uint16),
            ev["tdc"].astype(np.uint8))


def read_batches(path, frames_per_batch: int = 65536):
    """Convenience generator over validated FrameBatch spans."""
    return EventFileReader(path).iter_batches(frames_per_batch)
