import dataclasses
import gc
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import (
    REFERENCE_CFG,
    keyed_estimate_crosstalk,
    oracle_correct_chain,
)
from spadcorr import config as cfgmod
from spadcorr import pipeline
from spadcorr.config import parse_config
from spadcorr.correlator import (
    CorrelationAccumulator,
    accumulate,
    estimate_crosstalk,
)
from spadcorr.errors import ConfigError, OrderViolation
from spadcorr.pipeline import (
    accumulate_file,
    characterize_crosstalk,
    correct_chain,
    run_pair_study,
    simulate_accumulator,
    simulate_to_file,
)
from spadcorr.sensor import CrosstalkMap, simulate_frames


def small_settings(**overrides):
    lines = {
        "run.frames": 100000,
        "run.pairs_per_frame": 0.5,
        "run.seed": 11,
        "correct.apply_crosstalk": "false",
        "correct.characterization_frames": 100000,
    }
    lines.update(overrides)
    return parse_config("\n".join(f"{k} = {v}" for k, v in lines.items()))


class TestSimulateAccumulator:
    def test_event_file_tee_matches_memory(self, tmp_path):
        settings = small_settings(**{"crosstalk.p_1_0": "1e-3",
                                     "run.seed": 3})
        path = tmp_path / "far.evt"
        simulate_to_file(settings, "far", path, frames=5000)
        replay = accumulate_file(path)
        acc = simulate_accumulator(
            cfgmod.build_model(settings),
            cfgmod.build_mapping(settings, "far"),
            cfgmod.build_sensor(settings), n_frames=5000,
            pairs_per_frame=settings["run.pairs_per_frame"],
            crosstalk=cfgmod.build_crosstalk(settings), seed=3)
        assert replay.n_frames == acc.n_frames == 5000
        assert replay.mapping_mode == acc.mapping_mode == "far"
        assert acc.g2.sum() > 0
        for name in ("g2", "g2_shifted", "g2_later", "g1", "dt_hist"):
            np.testing.assert_array_equal(getattr(replay, name),
                                          getattr(acc, name))

    @pytest.mark.parametrize("fault", ["negative_frames", "bad_batch"])
    def test_failed_stream_leaves_no_file(self, tmp_path, monkeypatch,
                                          fault):
        settings = small_settings()
        path = tmp_path / "far.evt"
        frames, error = -5, ConfigError
        if fault == "bad_batch":
            frames, error = 5000, OrderViolation
            stream = pipeline.simulate_frames

            def twice(*args, **kwargs):   # the same frames written twice
                batches = list(stream(*args, **kwargs))
                return batches + batches

            monkeypatch.setattr(pipeline, "simulate_frames", twice)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(error):
                simulate_to_file(settings, "far", path, frames=frames)
            gc.collect()
        assert not path.exists()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]


class TestCorrectChain:
    def _acc(self, reference_model, far_mapping):
        from spadcorr.config import build_sensor
        sensor_cfg = build_sensor(small_settings())
        return simulate_accumulator(reference_model, far_mapping, sensor_cfg,
                                    n_frames=5000, pairs_per_frame=0.2,
                                    seed=4)

    def test_flag_progression(self, reference_model, far_mapping):
        acc = self._acc(reference_model, far_mapping)
        corr, cmap = correct_chain(acc, estimate_map=True, mask_radius=1)
        assert corr.flags == ("raw", "accidental_subtracted",
                              "crosstalk_corrected", "neighbor_masked")
        assert cmap is not None

    def test_stage_skips(self, reference_model, far_mapping):
        acc = self._acc(reference_model, far_mapping)
        corr, cmap = correct_chain(acc, mask_radius=None)
        assert corr.flags == ("raw", "accidental_subtracted")
        assert cmap is None

    def test_supplied_map_is_not_also_estimated(self, reference_model,
                                                 far_mapping):
        acc = self._acc(reference_model, far_mapping)
        with pytest.raises(ConfigError, match="cannot also be estimated"):
            correct_chain(acc, estimate_map=True, crosstalk_map=CrosstalkMap(
                np.full((3, 3), 1e-4), 1))

    @pytest.mark.parametrize("use_map", ["none", "given", "estimated"])
    def test_chain_memory_is_bounded(self, reference_model, far_mapping,
                                     use_map):
        acc = self._acc(reference_model, far_mapping)
        chain = dict(estimate_map=use_map == "estimated", crosstalk_map=(
            CrosstalkMap(np.full((3, 3), 1e-4), 1)
            if use_map == "given" else None))
        correct_chain(acc, **chain)
        tracemalloc.start()
        try:
            correct_chain(acc, **chain)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # at most three (n_pix, n_pix) float tensors live at once (24 MiB
        # on 32x32), plus under 1.75 MiB of masks and tables: the
        # accidental estimate is freed once it has been subtracted
        assert peak < 3 * acc.g2.size * 8 + 1.75 * 2**20

    def test_no_pair_tensor_stays_on_the_accumulators(self, monkeypatch):
        # the stages derive each (n_pix, n_pix) tensor they read and drop
        # it; none is cached on the accumulator of an arm or of the
        # characterization
        settings = small_settings(**{"crosstalk.p_1_0": "1e-3",
                                     "correct.apply_crosstalk": "true"})
        seen = []
        estimate = pipeline.estimate_crosstalk

        def record(acc, *args, **kwargs):
            seen.append(acc)
            return estimate(acc, *args, **kwargs)

        monkeypatch.setattr(pipeline, "estimate_crosstalk", record)
        cmap = characterize_crosstalk(settings)
        acc = simulate_accumulator(
            cfgmod.build_model(settings),
            cfgmod.build_mapping(settings, "far"),
            cfgmod.build_sensor(settings), n_frames=20000,
            pairs_per_frame=0.5, seed=5)
        for method in ("shifted_window", "g1_product"):
            correct_chain(acc, accidental_method=method, crosstalk_map=cmap)
        correct_chain(acc, estimate_map=True)
        assert len(seen) == 2 and seen[0].pair_keys.size > 0
        for one in (seen[0], acc):
            big = [name for name, value in vars(one).items()
                   if np.size(value) >= one.n_pixels ** 2]
            assert big == []


def reference_stream(stream):
    """The mapping mode and the batches of the first 2**17 frames of a
    reference arm, or of the first 2**16 of the characterization."""
    settings = cfgmod.load_config(REFERENCE_CFG)
    seed = settings["run.seed"]
    mode, rate, sensor_cfg, n_frames = {
        "far": ("far", settings["run.pairs_per_frame_far"], None, 2**17),
        "near": ("near", settings["run.pairs_per_frame_near"], None, 2**17),
        "characterization": ("far", 0.0, dataclasses.replace(
            cfgmod.build_sensor(settings),
            dark_rate_hz=settings["correct.characterization_dark_hz"]),
            2**16)}[stream]
    seed += {"far": 0, "near": 1, "characterization": 2}[stream]
    return mode, list(simulate_frames(
        cfgmod.build_model(settings), cfgmod.build_mapping(settings, mode),
        sensor_cfg or cfgmod.build_sensor(settings), n_frames, rate,
        crosstalk=cfgmod.build_crosstalk(settings), seed=seed))


class TestPairListMemory:
    """Accumulation holds the event columns and the pair list only, and
    the cross-talk map reads the pair list."""

    @pytest.mark.parametrize("stream", ["far", "near", "characterization"])
    def test_reference_streams_accumulate_in_little_memory(self, stream):
        mode, batches = reference_stream(stream)
        n_frames = sum(b.n_frames for b in batches)
        tracemalloc.start()
        try:
            acc = accumulate(batches, mapping_mode=mode)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        events = sum(b.n_events for b in batches)
        kept = int(acc.pair_counts.sum())
        assert kept > 0 and acc.n_frames == n_frames
        # a batch's int64 columns and lag arrays take under 40 B per event;
        # a kept pair's key, its place in the list and the merge under
        # 96 B; the three dense int64 tensors held before took 24 MiB
        assert peak < 40 * events + 96 * kept + 2**18 < 8 * 2**20

    def test_characterization_map_in_little_memory(self):
        mode, batches = reference_stream("characterization")
        acc = accumulate(batches, mapping_mode=mode)
        estimate_crosstalk(acc, "shifted_window")
        tracemalloc.start()
        try:
            estimate_crosstalk(acc, "shifted_window")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # under one (n_pix, n_pix) float64 tensor; the dense tensors read
        # before took 25.1 MiB
        assert peak < acc.n_pixels ** 2 * 8

    @pytest.mark.parametrize("through", ["estimate", "characterization"])
    def test_shifted_window_map_reads_no_tensor(self, through, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a dense tensor or estimate was derived")

        settings = small_settings(**{"crosstalk.p_1_0": "1e-3",
                                     "correct.apply_crosstalk": "true",
                                     "correct.characterization_frames":
                                     20000})
        acc = (accumulate(reference_stream("characterization")[1])
               if through == "estimate" else None)
        monkeypatch.setattr(CorrelationAccumulator, "tensor", refuse)
        monkeypatch.setattr(pipeline, "estimate_accidentals", refuse)
        cmap = (estimate_crosstalk(acc) if acc is not None
                else characterize_crosstalk(settings))
        assert cmap.probability(1, 0) > 0


class TestCharacterization:
    def test_recovers_asymmetric_injection(self):
        settings = small_settings(**{
            "crosstalk.p_1_0": "1e-3",
            "crosstalk.p_0_1": "5e-4",
            "correct.characterization_frames": 500000,
            "run.seed": 21,
        })
        cmap = characterize_crosstalk(settings)
        assert cmap.probability(1, 0) == pytest.approx(1e-3, rel=0.2)
        assert cmap.probability(0, 1) == pytest.approx(5e-4, rel=0.2)
        assert abs(cmap.probability(-1, 0)) < 1e-4
        assert abs(cmap.probability(0, -1)) < 1e-4


# sensor -> (n_x, n_y, cross-talk inner window)
ORACLE_SENSORS = {"32x32": (32, 32, 29), "24x16": (24, 16, 15)}


def oracle_settings(sensor, method="shifted_window"):
    n_x, n_y, inner = ORACLE_SENSORS[sensor]
    return small_settings(**{
        "sensor.n_x": n_x, "sensor.n_y": n_y, "run.frames": 20000,
        "crosstalk.p_1_0": "1e-3", "crosstalk.p_0_1": "1e-3",
        "correct.accidental_method": method,
        "correct.crosstalk_inner_window": inner,
        "correct.characterization_frames": 20000})


def characterize_with_acc(settings):
    """characterize_crosstalk's map and the accumulator it measured."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "simulate_accumulator",
                   lambda *a, **k: seen.append(simulate_accumulator(*a, **k))
                   or seen[-1])
        cmap = characterize_crosstalk(settings)
    return cmap, seen[0]


@pytest.fixture(scope="module")
def oracle_runs():
    """Per sensor: both arms' accumulators and a characterized map."""
    runs = {}
    for sensor in ORACLE_SENSORS:
        s = oracle_settings(sensor)
        accs = {mode: simulate_accumulator(
            cfgmod.build_model(s), cfgmod.build_mapping(s, mode),
            cfgmod.build_sensor(s), n_frames=s["run.frames"],
            pairs_per_frame=s["run.pairs_per_frame"],
            crosstalk=cfgmod.build_crosstalk(s), seed=seed)
            for mode, seed in (("near", 3), ("far", 4))}
        runs[sensor] = accs, characterize_with_acc(s)[0]
    return runs


class TestChainOracle:
    """The chain against the whole-tensor chain that kept values_later."""

    @pytest.mark.parametrize("sensor", list(ORACLE_SENSORS))
    @pytest.mark.parametrize("method", ["shifted_window", "g1_product"])
    def test_characterization_map_identical(self, sensor, method):
        cmap, acc = characterize_with_acc(oracle_settings(sensor, method))
        want = keyed_estimate_crosstalk(acc, method,
                                        ORACLE_SENSORS[sensor][2])
        assert cmap.probabilities.tobytes() == want.probabilities.tobytes()
        assert cmap.clamped_negative == want.clamped_negative > 0

    @pytest.mark.parametrize("sensor", list(ORACLE_SENSORS))
    @pytest.mark.parametrize("arm", ["near", "far"])
    @pytest.mark.parametrize("method", ["shifted_window", "g1_product"])
    @pytest.mark.parametrize("use_map", ["none", "given", "estimated"])
    @pytest.mark.parametrize("radius", [None, 0, 1, 2])
    def test_values_masks_and_map_identical(self, oracle_runs, sensor, arm,
                                            method, use_map, radius):
        accs, given = oracle_runs[sensor]
        chain = dict(accidental_method=method,
                     crosstalk_map=given if use_map == "given" else None,
                     estimate_map=use_map == "estimated", mask_radius=radius,
                     inner_window=ORACLE_SENSORS[sensor][2])
        corr, cmap = correct_chain(accs[arm], **chain)
        values, masked, want_map = oracle_correct_chain(accs[arm], **chain)
        assert corr.values.tobytes() == values.tobytes()
        np.testing.assert_array_equal(corr.masked, masked)
        if use_map == "none":
            assert cmap is None and want_map is None
        else:
            assert (cmap.probabilities.tobytes()
                    == want_map.probabilities.tobytes())
            assert cmap.clamped_negative == want_map.clamped_negative


class TestPairStudy:
    def test_structure_and_determinism(self):
        a = run_pair_study(small_settings())
        b = run_pair_study(small_settings())
        assert a.report.to_json() == b.report.to_json()
        np.testing.assert_array_equal(a.acc_near.g2, b.acc_near.g2)
        np.testing.assert_array_equal(a.corr_far.values, b.corr_far.values)
        assert a.crosstalk_map is None
        assert a.acc_near.n_frames == 100000
        assert a.corr_near.mapping_mode == "near"
        assert a.corr_far.mapping_mode == "far"
        assert set(a.report.methods) == {"numerical", "gauss1d", "gauss2d",
                                         "peaks"}
        c = run_pair_study(small_settings(**{"run.seed": 12}))
        assert c.report.to_json() != a.report.to_json()
        # the expected row is the config's targets, exactly
        targets = cfgmod.target_widths(small_settings())
        assert {k: a.report.expected[k] for k in targets} == targets

    def test_arms_use_independent_streams(self):
        result = run_pair_study(small_settings())
        assert not np.array_equal(result.acc_near.g1, result.acc_far.g1)

    def test_split_flux_touches_only_its_arm(self):
        base = run_pair_study(small_settings())
        split = run_pair_study(small_settings(
            **{"run.pairs_per_frame_far": 0.05}))
        np.testing.assert_array_equal(split.acc_near.g2, base.acc_near.g2)
        assert split.acc_far.g1.sum() < 0.4 * base.acc_far.g1.sum()
        assert split.acc_far.g1.sum() > 0

    def test_zero_rate_configures_dark_only_arm(self, monkeypatch):
        # a dark-only arm has no pair peak to fit; stop short of the fits
        monkeypatch.setattr(pipeline, "evaluate_epr", lambda *a, **k: None)
        settings = small_settings(**{"run.frames": 20000,
                                     "run.pairs_per_frame_far": 0})
        result = run_pair_study(settings)
        dark = simulate_accumulator(
            cfgmod.build_model(settings),
            cfgmod.build_mapping(settings, "far"),
            cfgmod.build_sensor(settings), n_frames=20000,
            pairs_per_frame=0.0, crosstalk=cfgmod.build_crosstalk(settings),
            seed=settings["run.seed"], window=settings["correlate.window"],
            shift=settings["correlate.shift"])
        for name in ("g1", "g2", "g2_shifted", "g2_later", "dt_hist"):
            np.testing.assert_array_equal(getattr(result.acc_far, name),
                                          getattr(dark, name))
        assert result.acc_near.g2.sum() > 10 * result.acc_far.g2.sum()

    def test_crosstalk_stage_enabled(self):
        settings = small_settings(**{
            "correct.apply_crosstalk": "true",
            "crosstalk.p_1_0": "1e-3",
            "correct.characterization_frames": 100000,
        })
        result = run_pair_study(settings)
        assert result.crosstalk_map is not None
        assert "crosstalk_corrected" in result.corr_near.flags
        assert "crosstalk_corrected" in result.corr_far.flags
        assert result.report.meta["flags_near"][-1] == "neighbor_masked"


# The reference loop (default.cfg, seed 103) at 2e6 frames per arm and a
# 4e5-frame characterization: (delta_x_um, delta_y_um, delta_qx_per_mm,
# delta_qy_per_mm, v_x, v_y) per method.
PINNED_WIDTHS = {
    "numerical": (32.87806517610536, 32.495378465027976, 9.324141155693557,
                  10.343992418993679, 0.09397886231157819,
                  0.11298468679876282),
    "gauss1d": (38.39726416402931, 49.78045150094534, 6.329207615903625,
                5.749907345697942, 0.059060789381934306,
                0.08192932099069017),
    "gauss2d": (36.17961809080813, 36.6417290219962, 4.198738135162369,
                3.6862789074100926, 0.023076265954807117,
                0.018244345993963212),
    "peaks": (36.67495706393549, 36.255129055051, 4.080154014027386,
              3.5006402452155374, 0.02239197196312629, 0.016107712650358482),
}
PINNED_KEYS = ("delta_x_um", "delta_y_um", "delta_qx_per_mm",
               "delta_qy_per_mm", "v_x", "v_y")


def test_reference_loop_report_is_pinned():
    """The report's values, not only their run-to-run equality.

    Stacked fits move by up to 1.5e-7 relative with how BLAS blocks their
    sums, so the widths are compared at 1e-6; the rest exactly.
    """
    settings = cfgmod.load_config(REFERENCE_CFG)
    settings["run.frames"] = 2000000
    settings["correct.characterization_frames"] = 400000
    report = run_pair_study(settings).report
    for name, want in PINNED_WIDTHS.items():
        row = report.methods[name]
        np.testing.assert_allclose([row[k] for k in PINNED_KEYS], want,
                                   rtol=1e-6, atol=0, err_msg=name)
        assert (row["violated_x"], row["violated_y"]) == (True, True), name
        assert (row["status_x"], row["status_y"]) == ("ok", "ok"), name
    assert set(report.methods) == set(PINNED_WIDTHS)
    assert report.meta == {
        "pixel_pitch_um": 44.67, "min_column_fraction": 0.01,
        "n_frames_near": 2000000, "n_frames_far": 2000000,
        "flags_near": ["raw", "accidental_subtracted", "crosstalk_corrected",
                       "neighbor_masked"],
        "flags_far": ["raw", "accidental_subtracted", "crosstalk_corrected",
                      "neighbor_masked"],
        "mask_radius_near": 1, "mask_radius_far": 1,
        "negative_floored": {"x": [172, 646], "y": [146, 667]}}
