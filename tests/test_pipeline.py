import numpy as np
import pytest

from helpers import REFERENCE_CFG
from spadcorr import config as cfgmod
from spadcorr import pipeline
from spadcorr.config import parse_config
from spadcorr.pipeline import (
    accumulate_file,
    characterize_crosstalk,
    correct_chain,
    run_pair_study,
    simulate_accumulator,
    simulate_to_file,
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
    def test_event_file_tee_matches_memory(self, tmp_path):
        settings = small_settings(**{"crosstalk.p_1_0": "1e-3"})
        path = tmp_path / "far.evt"
        simulate_to_file(settings, "far", path, frames=5000, seed=3)
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
    "numerical": (31.547988254517655, 32.4423102667412, 10.4642241538112,
                  10.97077490575131, 0.10898266134029293,
                  0.12667711259362402),
    "gauss1d": (34.396217512336335, 38.837138723639384, 4.050911676681939,
                4.33419214460813, 0.01941453180724068, 0.02833418818511459),
    "gauss2d": (34.63983094517323, 35.69938399342247, 3.9849339555778647,
                3.2873222360200702, 0.0190543344411407,
                0.013772284936529712),
    "peaks": (35.356741197876275, 35.2700056109964, 4.044684941127471,
              3.218875737621912, 0.02045096735276833, 0.012889007615209367),
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
    assert set(report.methods) == set(PINNED_WIDTHS)
    assert report.meta == {
        "pixel_pitch_um": 44.67, "min_column_fraction": 0.01,
        "n_frames_near": 2000000, "n_frames_far": 2000000,
        "flags_near": ["raw", "accidental_subtracted", "crosstalk_corrected",
                       "neighbor_masked"],
        "flags_far": ["raw", "accidental_subtracted", "crosstalk_corrected",
                      "neighbor_masked"],
        "mask_radius_near": 1, "mask_radius_far": 1,
        "negative_floored": {"x": [160, 642], "y": [157, 685]}}
