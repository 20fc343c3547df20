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

import json
import struct

import numpy as np

from .errors import BadMagic, TruncatedFile, InvariantViolation

MAGIC = b"SPADBLK1"

_DTYPES = {0: "<i8", 1: "<f8", 2: "|u1", 3: "|b1", 4: "<u4", 5: "<u2"}
_CODES = {np.dtype(v): k for k, v in _DTYPES.items()}


def save_arrays(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    chunks = [MAGIC, struct.pack("<H", len(arrays))]
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        code = _CODES.get(arr.dtype.newbyteorder("<") if arr.dtype.byteorder == ">"
                          else arr.dtype)
        if code is None:
            raise InvariantViolation(f"unsupported dtype {arr.dtype} for {name!r}")
        nb = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(nb)))
        chunks.append(nb)
        chunks.append(struct.pack("<BB", code, arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype(_DTYPES[code], copy=False).tobytes())
    mb = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    chunks.append(struct.pack("<I", len(mb)))
    chunks.append(mb)
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


def load_arrays(path) -> tuple[dict[str, np.ndarray], dict]:
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < len(MAGIC) + 2 or buf[:8] != MAGIC:
        raise BadMagic("not an array container")
    pos = 8
    (count,) = struct.unpack_from("<H", buf, pos)
    pos += 2
    arrays: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", buf, pos)
            pos += 2
            name = buf[pos:pos + nlen].decode("utf-8")
            pos += nlen
            if name in arrays:
                raise InvariantViolation(f"array {name!r} stored twice")
            code, ndim = struct.unpack_from("<BB", buf, pos)
            pos += 2
            if code not in _DTYPES:
                raise InvariantViolation(f"unknown dtype code {code}")
            shape = struct.unpack_from(f"<{ndim}I", buf, pos)
            pos += 4 * ndim
            dt = np.dtype(_DTYPES[code])
            nbytes = dt.itemsize * int(np.prod(shape, dtype=np.int64))
            if pos + nbytes > len(buf):
                raise TruncatedFile("array payload extends past end of file")
            arrays[name] = np.frombuffer(
                buf, dtype=dt, count=nbytes // dt.itemsize,
                offset=pos).reshape(shape).copy()
            pos += nbytes
        (mlen,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        if pos + mlen > len(buf):
            raise TruncatedFile("meta block extends past end of file")
        meta = json.loads(buf[pos:pos + mlen].decode("utf-8"))
    except struct.error as exc:
        raise TruncatedFile("container ended mid-record") from exc
    except ValueError as exc:   # bad utf-8 or JSON
        raise InvariantViolation(f"undecodable container: {exc}") from exc
    if pos + mlen != len(buf):
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
