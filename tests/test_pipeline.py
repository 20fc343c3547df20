import numpy as np
import pytest

from spadcorr import config as cfgmod
from spadcorr import pipeline
from spadcorr.config import parse_config
from spadcorr.eventfile import EventFileWriter
from spadcorr.pipeline import (
    accumulate_file,
    characterize_crosstalk,
    correct_chain,
    run_pair_study,
    simulate_accumulator,
)


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
    def test_event_file_tee_matches_memory(self, tmp_path, reference_model,
                                           far_mapping):
        from spadcorr.config import build_sensor
        settings = small_settings()
        sensor_cfg = build_sensor(settings)
        path = tmp_path / "tee.evt"
        writer = EventFileWriter(path, n_x=32, n_y=32, tdc_bin_ps=205.0,
                                 bins_per_frame=255, mapping_mode="far")
        acc = simulate_accumulator(reference_model, far_mapping, sensor_cfg,
                                   n_frames=5000, pairs_per_frame=0.2,
                                   seed=3, event_writer=writer)
        writer.close(total_frames=5000)
        replay = accumulate_file(path)
        assert replay.n_frames == acc.n_frames == 5000
        np.testing.assert_array_equal(replay.g2, acc.g2)
        np.testing.assert_array_equal(replay.g1, acc.g1)
        np.testing.assert_array_equal(replay.dt_hist, acc.dt_hist)
        assert replay.mapping_mode == "far"


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
