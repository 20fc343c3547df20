import numpy as np
import pytest

from helpers import batch_of
from spadcorr.arraystore import load_arrays, save_arrays
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


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(InvariantViolation):
        save_arrays(tmp_path / "x.blk",
                    {"c": np.arange(3, dtype=np.complex128)}, {})


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
