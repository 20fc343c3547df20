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
is single-hit per exposure). Readers decode a file in 1-MB blocks with
no per-frame Python, and yield one FrameBatch per block: one vectorized
walk (_walk_heads) finds every frame head in a block by pointer doubling,
and one pass (_decode_span) gathers and checks its frames. A faulty file
raises the error of its first faulty frame, checked in the order
_decode_span lists.

Version 1 caps the geometry at 32x32 pixels and 256 bins. Together with the
ordering rules this makes every single-byte corruption of the magic, the
dimensions or the bin count detectable on files that exercise the top pixel
and tdc codes.
"""

from __future__ import annotations

import contextlib
import os
import struct
from dataclasses import dataclass

import numpy as np

from .arraystore import create
from .errors import (
    BadMagic,
    ConfigError,
    InvariantViolation,
    MalformedFrame,
    OrderViolation,
    RangeViolation,
    TruncatedFile,
)
from .sensor import FrameBatch

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


def _validate_geometry(n_x, n_y, bins_per_frame, error):
    if not (1 <= n_x <= MAX_DIM and 1 <= n_y <= MAX_DIM):
        raise error(f"array {n_x}x{n_y} outside format v1 limits")
    if not (1 <= bins_per_frame <= MAX_BINS):
        raise error(f"{bins_per_frame} bins outside format v1 limits")


class EventFileWriter:
    """Streaming batch writer; frame ids must increase across batches.

    ``close`` writes the footer; ``discard`` abandons the file instead.
    """

    def __init__(self, path, n_x=32, n_y=32, tdc_bin_ps=205,
                 bins_per_frame=255, mapping_mode="unspecified"):
        _validate_geometry(n_x, n_y, bins_per_frame, ConfigError)
        if mapping_mode not in _MODE_CODES:
            raise ConfigError(f"unknown mapping mode {mapping_mode!r}")
        self.n_x = n_x
        self.n_y = n_y
        self.bins_per_frame = bins_per_frame
        self._last_id = -1
        self.bytes_written = 0
        self.path = path
        self._fh = create(path)
        self._put(_HEADER.pack(MAGIC, n_x, n_y, int(round(tdc_bin_ps)),
                               bins_per_frame,
                               _MODE_CODES[mapping_mode], b"\0\0\0"))

    def _put(self, blob) -> None:
        self._fh.write(blob)
        self.bytes_written += len(blob)

    def add_batch(self, batch: FrameBatch) -> None:
        """Encode a whole batch in one pass.

        The batch must keep FrameBatch's contract for this file's geometry
        (FrameBatch.checked_columns, MalformedFrame otherwise). Its ids must
        also continue past those already written (OrderViolation) and stay
        below the footer sentinel (RangeViolation).
        """
        if not isinstance(batch, FrameBatch):
            raise MalformedFrame(f"cannot encode {type(batch).__name__}")
        f, p, t = batch.checked_columns(self.n_x * self.n_y,
                                        self.bins_per_frame)
        if f.size == 0:
            return
        if f[0] <= self._last_id:
            raise OrderViolation(f"frame {f[0]} after frame {self._last_id}")
        if f[-1] >= _SENTINEL:
            raise RangeViolation("frame id collides with the footer sentinel")
        # each frame is a 2-unit head followed by its 1-unit events
        opens = np.concatenate(([True], np.diff(f) > 0))
        frame_of = np.cumsum(opens) - 1
        starts = np.flatnonzero(opens)
        head = np.empty(starts.size, dtype=_HEAD_DTYPE)
        head["fid"] = f[starts]
        head["n"] = np.diff(np.append(starts, f.size))
        units = np.empty(f.size + 2 * starts.size, dtype=_EVENT_DTYPE)
        at = np.arange(f.size) + 2 * frame_of + 2
        units["pixel"][at] = p
        units["tdc"][at] = t
        head_at = _UNIT * (starts + 2 * np.arange(starts.size))
        units.view(np.uint8)[head_at[:, None] + np.arange(_FRAME_HEAD.size)] \
            = head.view(np.uint8).reshape(-1, _FRAME_HEAD.size)
        self._put(units.view(np.uint8))   # the array's own buffer
        self._last_id = int(f[-1])

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

    def discard(self) -> None:
        """Close the handle and remove the partial file; no-op once closed."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.path)


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
        _validate_geometry(n_x, n_y, bins, RangeViolation)
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
    """Validating block decoder; the header and footer are checked up front."""

    def __init__(self, path):
        self.path = path
        self.header = read_header(path)

    def iter_batches(self):
        """Yield one validated FrameBatch per decoded block.

        The batches tile [0, total_frames): each runs from where the one
        before it ended to the last frame stored in its block, and the last
        one to the footer's total. A batch holds at most one block's events
        plus the frame carried over from the block before it.
        """
        total = self.header.total_frames
        start = 0
        with open(self.path, "rb") as fh:
            left = os.fstat(fh.fileno()).st_size - _HEADER.size - _FOOTER.size
            fh.seek(_HEADER.size)
            buf = b""
            while True:
                block = fh.read(min(_READ_BYTES, left))
                left = left - len(block) if block else 0   # file shrank
                buf += block
                starts, u = _walk_heads(_head_fields(buf)[1])
                size = len(buf)
                if _UNIT * u > size and left:   # the last frame continues
                    starts, u = starts[:-1], int(starts[-1])
                head_cut = not left and _UNIT * u < size
                cols = _NO_EVENTS
                if starts.size or head_cut:
                    cols = _decode_span(buf, starts, head_cut, self.header,
                                        start - 1)
                if not left:
                    if start < total:
                        yield FrameBatch(start, total - start, *cols)
                    return
                if cols[0].size:
                    end = int(cols[0][-1]) + 1
                    yield FrameBatch(start, end - start, *cols)
                    start = end
                buf = buf[_UNIT * u:]


def _head_fields(buf):
    """Strided (frame id, event count) views of the head at every unit.

    Unit u reads as the 6-byte head its bytes would form; only the units a
    whole head fits behind are viewed.
    """
    n = max(0, (len(buf) - _FRAME_HEAD.size) // _UNIT + 1)
    return tuple(np.ndarray(n, dtype, buf, offset, (_UNIT,)) if n
                 else np.empty(0, dtype)
                 for dtype, offset in _HEAD_DTYPE.fields.values())


def _walk_heads(count):
    """Units where frames start, walking from unit 0, and the unit after.

    Each unit u would be followed by the head at u + 2 + count[u]; the
    chain from unit 0 runs while a head fits. Instead of stepping it frame
    by frame, the jump table is squared (2, 4, 8, ... frames per jump) and
    every pass appends the heads one jump past those already found, so a
    block of F frames costs about log2(F) whole-table gathers. Every unit
    beyond the last viewed one collapses into a sink that ends the chain.
    """
    n = count.size
    if not n:
        return np.empty(0, np.int64), 0
    jump = np.arange(2, n + 3, dtype=np.int64)
    jump[:n] += count
    np.minimum(jump, n, out=jump)   # jump[n] = n: the sink
    starts = np.zeros(1, np.int64)
    while True:   # starts holds the first 2**k heads, jump spans 2**k
        starts = np.concatenate((starts, jump.take(starts)))
        if starts[-1] == n:
            break
        jump = jump.take(jump)
    starts = starts[:np.searchsorted(starts, n)]
    last = int(starts[-1])
    return starts, last + 2 + int(count[last])


def _decode_span(buf, at, head_cut, hdr, last_id):
    """Gather and validate the frames starting at the given 3-byte units.

    Raises the error of the first faulty frame, its checks taken in the
    order listed here; ``head_cut`` marks one more head cut by the footer.
    """
    units = np.frombuffer(buf, dtype=_EVENT_DTYPE, count=len(buf) // _UNIT)
    fid, count = (f[at].astype(np.int64) for f in _head_fields(buf))
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

