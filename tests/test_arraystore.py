import os
import stat
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    batch_of,
    oracle_blk_bytes,
    save_cell_accumulator,
    save_dense_accumulator,
)
from spadcorr.arraystore import load_arrays, save_arrays
from spadcorr.cli import main
from spadcorr.correlator import (
    CorrectedG2,
    CorrelationAccumulator,
    CrosstalkMap,
    accumulate,
    estimate_accidentals,
    mask_neighbors,
    normalize,
    subtract_accidentals,
)
from spadcorr.errors import (
    BadMagic,
    InvariantViolation,
    SpadError,
    TruncatedFile,
    WindowTooLarge,
)
from spadcorr.eventfile import EventFileWriter


def sample_payload(rng):
    return {
        "counts": rng.integers(0, 1000, (16, 16)),
        "values": rng.normal(size=(4, 4, 4)),
        "flags": rng.integers(0, 2, 50).astype(bool),
        "codes": rng.integers(0, 255, 20).astype(np.uint8),
        "scalar": np.array(3.5),
    }


def test_round_trip_preserves_arrays_and_meta(tmp_path):
    rng = np.random.default_rng(2)
    arrays = sample_payload(rng)
    meta = {"n_frames": 12345, "flags": ["raw"], "window": 10}
    path = tmp_path / "snap.blk"
    save_arrays(path, arrays, meta)
    back, meta_back = load_arrays(path)
    assert meta_back == meta
    assert set(back) == set(arrays)
    for name in arrays:
        np.testing.assert_array_equal(back[name], arrays[name])
        assert back[name].dtype == np.asarray(arrays[name]).dtype or \
            back[name].dtype.kind == np.asarray(arrays[name]).dtype.kind


def test_writes_are_byte_identical(tmp_path):
    rng = np.random.default_rng(3)
    arrays = sample_payload(rng)
    meta = {"b": 1, "a": 2}
    p1, p2 = tmp_path / "a.blk", tmp_path / "b.blk"
    save_arrays(p1, arrays, meta)
    save_arrays(p2, arrays, meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_container(tmp_path):
    path = tmp_path / "none.blk"
    save_arrays(path, {}, {})
    arrays, meta = load_arrays(path)
    assert arrays == {}
    assert meta == {}


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.blk"
    save_arrays(path, {"x": np.arange(3)}, {})
    blob = bytearray(path.read_bytes())
    blob[3] ^= 0x01
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagic):
        load_arrays(path)


def test_truncation_rejected(tmp_path):
    path = tmp_path / "cut.blk"
    save_arrays(path, {"x": np.arange(100, dtype=np.int64)}, {"k": 1})
    blob = path.read_bytes()
    for cut in (12, len(blob) // 2, len(blob) - 3):
        path.write_bytes(blob[:cut])
        with pytest.raises(TruncatedFile):
            load_arrays(path)


def test_saved_bytes_match_struct_oracle(tmp_path):
    rng = np.random.default_rng(4)
    arrays = {
        "big_endian": np.arange(6, dtype=">i8").reshape(2, 3),
        "big_endian_f8": rng.normal(size=5).astype(">f8"),
        "fortran": np.asfortranarray(rng.normal(size=(3, 4))),
        "sliced": rng.integers(0, 1000, (6, 8))[::2, 1::3],
        "sliced_u4": np.arange(40, dtype=">u4").reshape(5, 8)[1:, ::-3],
        "scalar": np.array(2.5),
        "empty": np.zeros((0, 3), dtype=np.uint16),
        "flags": rng.integers(0, 2, (2, 3)).astype(bool).T,
        "codes": rng.integers(0, 255, 7).astype(np.uint8)[::2],
    }
    meta = {"kind": "test", "n": 3}
    path = tmp_path / "x.blk"
    save_arrays(path, arrays, meta)
    assert path.read_bytes() == oracle_blk_bytes(arrays, meta)
    back, _ = load_arrays(path)
    for name, arr in arrays.items():
        assert back[name].flags.c_contiguous and back[name].flags.aligned
        assert back[name].dtype == arr.dtype.newbyteorder("<")
        assert back[name].shape == arr.shape
        np.testing.assert_array_equal(back[name], arr)


def test_zero_dimensional_array_keeps_its_shape(tmp_path):
    path = tmp_path / "x.blk"
    save_arrays(path, {"s": np.array(2.5)}, {})
    back, _ = load_arrays(path)
    assert back["s"].shape == ()
    assert back["s"].dtype == np.float64
    assert back["s"][()] == 2.5


def test_unsupported_dtype_rejected(tmp_path):
    path = tmp_path / "x.blk"
    save_arrays(path, {"x": np.arange(3)}, {"k": 1})
    before = path.read_bytes()
    with pytest.raises(InvariantViolation):
        save_arrays(path, {"x": np.arange(4),
                           "c": np.arange(3, dtype=np.complex128)}, {})
    # checked before the file is opened: the old container is intact
    assert path.read_bytes() == before


def test_oversized_dimension_rejected_before_allocation(tmp_path):
    path = tmp_path / "x.blk"
    save_arrays(path, {"x": np.zeros(300_000)}, {})
    blob = bytearray(path.read_bytes())
    # magic 8, count 2, name length 2, name 1, code 1, ndim 1: dims at 15
    blob[15:19] = (0xFFFFFFF0).to_bytes(4, "little")    # a 34-GB payload
    path.write_bytes(bytes(blob))
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedFile, match="payload"):
            load_arrays(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # far below both the declared payload and the 2.4-MB file
    assert peak < 1e6


def write_blk(path, n):
    save_arrays(path, {"x": np.arange(n)}, {"n": n})


def write_evt(path, n):
    w = EventFileWriter(path)
    w.add_batch(batch_of((0, [1], [0])))
    w.close(total_frames=n)


SAVERS = pytest.mark.parametrize("write", [write_blk, write_evt])


def fresh_bytes(tmp_path, write, n):
    write(tmp_path / "fresh", n)
    return (tmp_path / "fresh").read_bytes()


@SAVERS
def test_save_replaces_the_file_not_its_hard_links(tmp_path, write):
    path, link = tmp_path / "out", tmp_path / "link"
    write(path, 3)
    old = path.read_bytes()
    os.link(path, link)
    path.chmod(0o640)
    write(path, 4)
    assert link.read_bytes() == old
    assert path.read_bytes() == fresh_bytes(tmp_path, write, 4) != old
    assert not os.path.samefile(path, link)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


@SAVERS
def test_save_writes_through_a_symlink(tmp_path, write):
    target, link = tmp_path / "target", tmp_path / "link"
    write(target, 3)
    link.symlink_to(target)
    write(link, 4)
    assert link.is_symlink()
    assert target.read_bytes() == fresh_bytes(tmp_path, write, 4)


@SAVERS
@pytest.mark.parametrize("refuse", ["access", "unlink"])
def test_file_that_cannot_be_replaced_is_truncated(tmp_path, monkeypatch,
                                                   write, refuse):
    path, link = tmp_path / "out", tmp_path / "link"
    write(path, 3)
    os.link(path, link)

    def refused(*args, **kwargs):
        if refuse == "access":
            return False
        raise PermissionError(1, "refused")

    monkeypatch.setattr(os, refuse, refused)
    write(path, 4)
    monkeypatch.undo()
    # opened "wb" as before: the one inode, seen through both names
    assert os.path.samefile(path, link)
    assert link.read_bytes() == fresh_bytes(tmp_path, write, 4)


@SAVERS
def test_directory_path_raises_os_error(tmp_path, write):
    with pytest.raises(IsADirectoryError):
        write(tmp_path, 3)


def tiny_containers():
    """A 2x2 accumulator, its corrected tensor and a cross-talk map."""
    acc = accumulate(batch_of((0, [1, 2, 4], [0, 1, 6]), (2, [3], [2])),
                     window=2, shift=5, n_x=2, n_y=2, bins_per_frame=8)
    corr = subtract_accidentals(normalize(acc), estimate_accidentals(acc))
    cmap = CrosstalkMap(probabilities=np.full((3, 3), 1e-3), radius=1,
                        clamped_negative=1)
    return {"accumulator": (acc, CorrelationAccumulator),
            "corrected": (mask_neighbors(corr, 1), CorrectedG2),
            "crosstalk_map": (cmap, CrosstalkMap)}


@pytest.mark.parametrize("kind", ["accumulator", "corrected", "crosstalk_map"])
def test_byte_flips_end_in_spad_errors(tmp_path, kind):
    obj, cls = tiny_containers()[kind]
    path = tmp_path / "good.blk"
    obj.save(path)
    good = path.read_bytes()
    cls.load(path)
    bad = tmp_path / "bad.blk"
    outcomes = {"loaded": 0, "rejected": 0}
    for pos in range(len(good)):
        for delta in (0x01, 0x80, 0xFF):
            blob = bytearray(good)
            blob[pos] ^= delta
            bad.write_bytes(bytes(blob))
            try:
                cls.load(bad)
            except SpadError:
                outcomes["rejected"] += 1
            else:
                outcomes["loaded"] += 1
    assert sum(outcomes.values()) == 3 * len(good)
    assert min(outcomes.values()) > 0


def test_meta_and_arrays_are_checked(tmp_path):
    path = tmp_path / "x.blk"
    arrays = {"probabilities": np.zeros((3, 3))}
    for meta, arr in (
            ({"kind": "crosstalk_map", "radius": 1}, arrays),
            ({"kind": "crosstalk_map", "radius": "1",
              "clamped_negative": 0}, arrays),
            ({"kind": "crosstalk_map", "radius": True,
              "clamped_negative": 0}, arrays),
            ({"kind": "crosstalk_map", "radius": 2,
              "clamped_negative": 0}, arrays),
            ({"kind": "crosstalk_map", "radius": 1, "clamped_negative": 0},
             {"probabilities": np.zeros((3, 3), dtype=np.int64)}),
            ({"kind": "crosstalk_map", "radius": 1, "clamped_negative": 0},
             {"other": np.zeros((3, 3))})):
        save_arrays(path, arr, meta)
        with pytest.raises(InvariantViolation):
            CrosstalkMap.load(path)


@pytest.mark.parametrize("kind,field,value", [
    ("accumulator", "mapping_mode", "fas"),
    ("accumulator", "n_frames", -1),
    ("corrected", "mapping_mode", "fas"),
    ("corrected", "n_frames", -1),
    ("corrected", "mask_radius", -1),
    ("crosstalk_map", "clamped_negative", -1),
])
def test_meta_values_are_checked(tmp_path, kind, field, value):
    obj, cls = tiny_containers()[kind]
    path = tmp_path / "x.blk"
    obj.save(path)
    arrays, meta = load_arrays(path)
    cls.load(path)
    save_arrays(path, arrays, {**meta, field: value})
    with pytest.raises(InvariantViolation):
        cls.load(path)


@pytest.mark.parametrize("kind", ["accumulator", "corrected"])
def test_negative_grid_refused(tmp_path, kind):
    # -2 x -2 keeps the 4 pixels that the stored arrays hold
    obj, cls = tiny_containers()[kind]
    path = tmp_path / "x.blk"
    obj.save(path)
    arrays, meta = load_arrays(path)
    save_arrays(path, arrays, {**meta, "n_x": -2, "n_y": -2})
    with pytest.raises(InvariantViolation, match=r"\['n_x', 'n_y'\]"):
        cls.load(path)


def test_displaced_window_beyond_frame_rejected(tmp_path):
    # the 2x2 accumulator has 8 bins, window 2 and shift 5; a shift of 10
    # puts its displaced window wholly past the largest |dt| of 7
    obj, _ = tiny_containers()["accumulator"]
    path = tmp_path / "x.blk"
    obj.save(path)
    arrays, meta = load_arrays(path)
    save_arrays(path, arrays, {**meta, "shift": 10})
    with pytest.raises(WindowTooLarge, match="beyond the frame"):
        CorrelationAccumulator.load(path)


def test_undecodable_bytes_rejected(tmp_path):
    path = tmp_path / "x.blk"
    save_arrays(path, {"x": np.arange(3)}, {"k": 1})
    blob = path.read_bytes()
    for bad in (blob.replace(b"x", b"\xff", 1),    # name not utf-8
                blob.replace(b'{"k"', b'{"k\xff', 1),
                blob.replace(b'{"k"', b'["k"', 1),
                blob + b"\0"):
        path.write_bytes(bad)
        with pytest.raises(InvariantViolation):
            load_arrays(path)
    save_arrays(path, {"x": np.arange(3)}, [1])
    with pytest.raises(InvariantViolation, match="JSON object"):
        load_arrays(path)


# the accumulator's pair list, then its singles
PAIRS = ("pair_keys", "pair_counts")
SINGLES = ("g1", "dt_hist")
TENSORS = ("g2", "g2_shifted", "g2_later")


def random_accumulator(rng, n_x, n_y, fill):
    """An accumulator on 8 bins (window 2, shift 5: 15 dt per pixel pair)
    whose pair list is empty, sparse (each key with probability 0.05) or
    full (every pixel pair at one random dt), of counts beyond 32 bits."""
    n_pix = n_x * n_y
    a, b = np.triu_indices(n_pix, 1)
    keys = (a * n_pix + b) * 15
    if fill == "sparse":
        keys = (keys[:, None] + np.arange(15)).ravel()
        keys = keys[rng.random(keys.size) < 0.05]
    elif fill == "full":
        keys = keys + rng.integers(0, 15, keys.size)
    else:
        keys = keys[:0]
    return CorrelationAccumulator(
        n_x=n_x, n_y=n_y, bins_per_frame=8, window=2, shift=5,
        mapping_mode="far", n_frames=int(rng.integers(0, 2**40)),
        pair_keys=keys, pair_counts=rng.integers(1, 2**40, keys.size),
        g1=rng.integers(0, 2**40, n_pix), dt_hist=rng.integers(0, 2**40, 15))


@settings(max_examples=30, deadline=None)
@given(sensor=st.sampled_from([(1, 1), (2, 3), (32, 32)]),
       fill=st.sampled_from(["empty", "sparse", "full"]),
       seed=st.integers(0, 2**32 - 1))
def test_accumulator_pairs_round_trip(sensor, fill, seed):
    acc = random_accumulator(np.random.default_rng(seed), *sensor, fill)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "acc.blk"
        acc.save(path)
        saved = path.read_bytes()
        back = CorrelationAccumulator.load(path)
        for name in PAIRS + SINGLES + TENSORS:
            assert getattr(back, name).dtype == np.int64
            np.testing.assert_array_equal(getattr(back, name),
                                          getattr(acc, name))
        for name in ("n_x", "n_y", "bins_per_frame", "window", "shift",
                     "mapping_mode", "n_frames"):
            assert getattr(back, name) == getattr(acc, name)
        back.save(path)
        assert path.read_bytes() == saved


@pytest.mark.parametrize("n_x,n_y", [(2, 3), (32, 32)])
def test_accumulator_container_grows_16_bytes_per_key(tmp_path, n_x, n_y):
    acc = random_accumulator(np.random.default_rng(n_x), n_x, n_y, "sparse")
    empty = CorrelationAccumulator(
        n_x=n_x, n_y=n_y, bins_per_frame=8, window=2, shift=5,
        mapping_mode="far", n_frames=acc.n_frames, g1=acc.g1,
        dt_hist=acc.dt_hist)
    acc.save(tmp_path / "acc.blk")
    empty.save(tmp_path / "empty.blk")
    assert acc.pair_keys.size > 0
    assert (tmp_path / "acc.blk").stat().st_size \
        == (tmp_path / "empty.blk").stat().st_size + 16 * acc.pair_keys.size
    # the layout: the sorted keys, their counts, then the singles
    _, meta = load_arrays(tmp_path / "acc.blk")
    assert (tmp_path / "acc.blk").read_bytes() == oracle_blk_bytes(
        {"pair_keys": acc.pair_keys, "pair_counts": acc.pair_counts,
         "g1": acc.g1, "dt_hist": acc.dt_hist}, meta)


KEYS, COUNTS = PAIRS


def change(fn, *names):
    return lambda cells: cells.update((name, fn(cells[name]))
                                      for name in names)


def set_at(name, index, value):
    def edit(cells):
        cells[name] = cells[name].copy()
        cells[name][index] = value
    return edit


# the 2x2 accumulator (n_pix 4, 15 dt per pair) keys the pixel pairs
# (0, 1), (0, 3) and (1, 3) at dt -1, -6 and -5: 21, 46 and 107
MALFORMED_CELLS = {
    "keys-missing": lambda cells: cells.pop(KEYS),
    "counts-missing": lambda cells: cells.pop(COUNTS),
    "keys-2d": change(lambda a: a.reshape(3, 1), KEYS, COUNTS),
    # counts of the keys' dtype, so only the keys' own check refuses them
    "keys-float": change(lambda a: a.astype(np.float64), KEYS, COUNTS),
    "keys-u4": change(lambda a: a.astype(np.uint32), KEYS, COUNTS),
    "keys-descending": change(lambda a: a[::-1], KEYS, COUNTS),
    "keys-duplicate": set_at(KEYS, 1, 21),
    "key-negative": set_at(KEYS, 0, -1),
    "key-past-end": set_at(KEYS, -1, 4 * 4 * 15),
    "pixel-with-itself": set_at(KEYS, -1, (1 * 4 + 1) * 15 + 7),
    "higher-pixel-first": set_at(KEYS, -1, (3 * 4 + 0) * 15 + 7),
    "counts-float": change(lambda a: a.astype(np.float64), COUNTS),
    "counts-short": change(lambda a: a[:-1], COUNTS),
    "count-zero": set_at(COUNTS, 2, 0),
    "count-negative": set_at(COUNTS, 2, -3),
}


@pytest.mark.parametrize("edit", MALFORMED_CELLS.values(),
                         ids=MALFORMED_CELLS.keys())
def test_malformed_cells_refused(tmp_path, edit):
    acc, _ = tiny_containers()["accumulator"]
    path = tmp_path / "acc.blk"
    acc.save(path)
    arrays, meta = load_arrays(path)
    assert arrays[KEYS].tolist() == [21, 46, 107]
    edit(arrays)
    save_arrays(path, arrays, meta)
    with pytest.raises(InvariantViolation):
        CorrelationAccumulator.load(path)


@pytest.mark.parametrize("name", SINGLES)
def test_negative_singles_refused(tmp_path, name):
    acc, _ = tiny_containers()["accumulator"]
    path = tmp_path / "acc.blk"
    acc.save(path)
    blob = bytearray(path.read_bytes())
    # past the record's name: dtype code, ndim and its one u32 dimension
    head = struct.pack("<H", len(name)) + name.encode()
    payload = blob.index(head) + len(head) + 6
    blob[payload + 8 + 7] ^= 0x80     # the top byte of entry 1
    path.write_bytes(bytes(blob))
    assert load_arrays(path)[0][name][1] < 0
    with pytest.raises(InvariantViolation, match="negative"):
        CorrelationAccumulator.load(path)


def test_dense_accumulator_container_refused(tmp_path, capsys):
    acc, _ = tiny_containers()["accumulator"]
    path = tmp_path / "old.blk"
    save_dense_accumulator(acc, path)
    assert load_arrays(path)[0]["g2"].shape == (4, 4)
    with pytest.raises(InvariantViolation,
                       match="re-run `spadcorr correlate`"):
        CorrelationAccumulator.load(path)
    assert main(["correct", "--in", str(path),
                 "--out", str(tmp_path / "g2.blk")]) == 3
    assert "re-run `spadcorr correlate`" in capsys.readouterr().err
    assert not (tmp_path / "g2.blk").exists()


def test_cell_accumulator_container_refused(tmp_path, capsys):
    # the layout that stored each pair tensor's nonzero cells keeps no dt,
    # so no pair list can be rebuilt from it
    acc, _ = tiny_containers()["accumulator"]
    path = tmp_path / "old.blk"
    save_cell_accumulator(acc, path)
    arrays, _ = load_arrays(path)
    assert sorted(arrays) == ["dt_hist", "g1", "g2_counts", "g2_keys",
                              "g2_later_counts", "g2_later_keys",
                              "g2_shifted_counts", "g2_shifted_keys"]
    with pytest.raises(InvariantViolation,
                       match="re-run `spadcorr correlate`"):
        CorrelationAccumulator.load(path)
    assert main(["correct", "--in", str(path),
                 "--out", str(tmp_path / "g2.blk")]) == 3
    assert "re-run `spadcorr correlate`" in capsys.readouterr().err
    assert not (tmp_path / "g2.blk").exists()


def test_arrays_left_out_are_skipped_after_the_size_check(tmp_path):
    path = tmp_path / "x.blk"
    save_arrays(path, {"a": np.arange(3), "b": np.ones(4), "c": np.arange(2)},
                {"k": 1})
    arrays, meta = load_arrays(path, keep=("a", "c"))
    assert meta == {"k": 1} and list(arrays) == ["a", "b", "c"]
    assert arrays["b"] is None
    np.testing.assert_array_equal(arrays["c"], [0, 1])
    # a skipped payload that runs past the end is refused all the same
    blob = bytearray(path.read_bytes())
    head = struct.pack("<H", 1) + b"b" + bytes([1, 1])
    at = blob.index(head) + len(head)
    blob[at:at + 4] = struct.pack("<I", 10**6)
    path.write_bytes(bytes(blob))
    with pytest.raises(TruncatedFile, match="payload"):
        load_arrays(path, keep=("a",))


def test_accumulator_beyond_the_pixel_index_refused_before_allocation(
        tmp_path, capsys):
    # a 1-MB g1 of 2^17 pixels: loaded densely, each of the three pair
    # tensors would ask for 128 GiB
    acc, _ = tiny_containers()["accumulator"]
    path = tmp_path / "big.blk"
    acc.save(path)
    arrays, meta = load_arrays(path)
    arrays["g1"] = np.zeros(1 << 17, dtype=np.int64)
    arrays.update({name: np.empty(0, dtype=np.int64) for name in arrays
                   if name.endswith(("_keys", "_counts"))})
    save_arrays(path, arrays, {**meta, "n_x": 512, "n_y": 256})
    tracemalloc.start()
    try:
        with pytest.raises(InvariantViolation, match=r"\['n_x', 'n_y'\]"):
            CorrelationAccumulator.load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert main(["correct", "--in", str(path),
                 "--out", str(tmp_path / "g2.blk")]) == 3
    assert "data error" in capsys.readouterr().err
