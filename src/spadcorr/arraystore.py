"""Tiny deterministic container for named numpy arrays plus a JSON meta block.

Snapshots written by the pipeline (accumulators, corrected tensors,
cross-talk maps) must be byte-identical for identical inputs, which rules out
zip-based containers with timestamps. Layout, all little-endian:

    magic    8s   "SPADBLK1"
    n_arrays u16
    per array:
        name_len u16, name utf-8
        dtype    u8  (code table below)
        ndim     u8
        dims     ndim x u32
        payload  raw C-order bytes
    meta_len u32, canonical JSON (sorted keys)
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
import struct

import numpy as np

from .errors import BadMagic, TruncatedFile, InvariantViolation

MAGIC = b"SPADBLK1"

_DTYPES = {0: "<i8", 1: "<f8", 2: "|u1", 3: "|b1", 4: "<u4", 5: "<u2"}
_CODES = {np.dtype(v): k for k, v in _DTYPES.items()}


def create(path):
    """Open ``path`` for writing as a new file.

    An existing regular file is unlinked first, not truncated: on ext4,
    truncating a file that was rewritten before waits for that writeback.
    The new file takes the old one's mode bits, and another hard link
    keeps the old bytes. A missing path, a symlink (written through) and
    a file that cannot be written or unlinked are opened with "wb", so
    they give the errors they gave before.
    """
    mode = None
    with contextlib.suppress(OSError):
        st = os.lstat(path)
        if stat.S_ISREG(st.st_mode) and os.access(path, os.W_OK):
            os.unlink(path)
            mode = stat.S_IMODE(st.st_mode)
    fh = open(path, "wb")
    if mode is not None:
        with contextlib.suppress(OSError):   # a filesystem without modes
            os.fchmod(fh.fileno(), mode)
    return fh


def save_arrays(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    # Every record is checked and packed before the file is opened, so an
    # unsupported array writes nothing and leaves an existing file intact.
    records = []
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        code = _CODES.get(arr.dtype.newbyteorder("<") if arr.dtype.byteorder == ">"
                          else arr.dtype)
        if code is None:
            raise InvariantViolation(f"unsupported dtype {arr.dtype} for {name!r}")
        arr = np.asarray(arr, dtype=_DTYPES[code], order="C")
        nb = name.encode("utf-8")
        records.append((struct.pack(f"<H{len(nb)}sBB{arr.ndim}I", len(nb), nb,
                                    code, arr.ndim, *arr.shape), arr))
    mb = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with create(path) as fh:
        fh.write(MAGIC + struct.pack("<H", len(arrays)))
        for header, arr in records:
            fh.write(header)
            fh.write(arr)    # the array's own buffer, not a copy of it
        fh.write(struct.pack("<I", len(mb)) + mb)


def load_arrays(path, keep=None) -> tuple[dict[str, np.ndarray], dict]:
    # A name outside keep, when given, maps to None: its payload is skipped.
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < len(MAGIC) + 2 or fh.read(len(MAGIC)) != MAGIC:
            raise BadMagic("not an array container")

        def unpack(fmt):
            # a short read makes struct.error, caught below
            return struct.unpack(fmt, fh.read(struct.calcsize(fmt)))

        arrays: dict[str, np.ndarray] = {}
        try:
            (count,) = unpack("<H")
            for _ in range(count):
                (nlen,) = unpack("<H")
                name = fh.read(nlen).decode("utf-8")
                if name in arrays:
                    raise InvariantViolation(f"array {name!r} stored twice")
                code, ndim = unpack("<BB")
                if code not in _DTYPES:
                    raise InvariantViolation(f"unknown dtype code {code}")
                shape = unpack(f"<{ndim}I")
                dt = np.dtype(_DTYPES[code])
                # checked against the file before anything is allocated,
                # so a corrupted dimension cannot ask for gigabytes
                nbytes = dt.itemsize * math.prod(shape)
                if fh.tell() + nbytes > size:
                    raise TruncatedFile("array payload extends past end of file")
                if keep is not None and name not in keep:
                    arrays[name] = None
                    fh.seek(nbytes, os.SEEK_CUR)
                    continue
                # the payload's one copy, straight into an aligned array
                arr = np.empty(shape, dtype=dt)
                if fh.readinto(arr) != nbytes:
                    raise TruncatedFile("array payload extends past end of file")
                arrays[name] = arr
            (mlen,) = unpack("<I")
            if fh.tell() + mlen > size:
                raise TruncatedFile("meta block extends past end of file")
            meta = json.loads(fh.read(mlen).decode("utf-8"))
        except struct.error as exc:
            raise TruncatedFile("container ended mid-record") from exc
        except ValueError as exc:   # bad utf-8 or JSON
            raise InvariantViolation(f"undecodable container: {exc}") from exc
        if fh.tell() != size:
            raise InvariantViolation("bytes after the meta block")
    if not isinstance(meta, dict):
        raise InvariantViolation("meta block is not a JSON object")
    return arrays, meta


def check_meta(meta: dict, **types) -> dict:
    """Return the named meta fields, each checked to have its type.

    A type may be a tuple of types. The match is exact, so a JSON true is
    not an int. Raises InvariantViolation on a missing or mistyped field.
    """
    for key, want in types.items():
        if key not in meta or type(meta[key]) not in (
                want if isinstance(want, tuple) else (want,)):
            raise InvariantViolation(f"meta field {key!r} missing or mistyped")
    return {key: meta[key] for key in types}


def check_arrays(arrays: dict, **specs) -> dict:
    """Return the named arrays, each checked against its (shape, dtype).

    Raises InvariantViolation on a missing array or a mismatch.
    """
    for name, (shape, dtype) in specs.items():
        arr = arrays.get(name)
        if arr is None or arr.shape != shape or arr.dtype != dtype:
            raise InvariantViolation(
                f"array {name!r} missing or not {np.dtype(dtype)} {shape}")
    return {name: arrays[name] for name in specs}
