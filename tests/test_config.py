import re

import numpy as np
import pytest

from spadcorr.cli import main
from spadcorr.config import (
    build_crosstalk,
    build_mapping,
    build_model,
    build_sensor,
    defaults,
    load_config,
    parse_config,
    target_widths,
)
from spadcorr.errors import ConfigError
from spadcorr.optics import DoubleGaussianModel
from spadcorr.sensor import draw_pixel_offsets


# (key, value, message): each once ran or crashed instead of exiting 2
BAD_VALUES = [
    ("sensor.pixel_offset_range_ps", "-5", "must be nonnegative"),
    ("run.pairs_per_frame", "nan", "is not finite"),
    ("sensor.dark_rate_hz", "inf", "is not finite"),
    ("mapping.center_offset_x_px", "nan", "is not finite"),
    ("epr.min_column_fraction", "nan", "is not finite"),
    ("epr.min_column_fraction", "-1", "must be above 0 and at most 1"),
    ("epr.min_column_fraction", "2", "must be above 0 and at most 1"),
]


class TestParsing:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == defaults()
        assert parse_config("# comment\n\n   \n") == defaults()

    def test_unset_optional_keys_are_absent(self):
        settings = defaults()
        assert "run.pairs_per_frame_near" not in settings
        assert "run.pairs_per_frame_far" not in settings

    def test_values_are_converted(self):
        settings = parse_config(
            "run.frames = 500\nsensor.efficiency = 0.25\n"
            "correct.apply_crosstalk = no\n"
            "correct.accidental_method = g1_product\n")
        assert settings["run.frames"] == 500
        assert isinstance(settings["run.frames"], int)
        assert settings["sensor.efficiency"] == 0.25
        assert settings["correct.apply_crosstalk"] is False
        assert settings["correct.accidental_method"] == "g1_product"

    @pytest.mark.parametrize("text,want", [
        ("true", True), ("True", True), ("YES", True), ("1", True),
        ("false", False), ("no", False), ("0", False),
    ])
    def test_boolean_spellings(self, text, want):
        got = parse_config(f"correct.apply_crosstalk = {text}")
        assert got["correct.apply_crosstalk"] is want

    def test_bad_boolean(self):
        with pytest.raises(ConfigError, match="not a boolean"):
            parse_config("correct.apply_crosstalk = maybe")

    def test_bad_choice(self):
        with pytest.raises(ConfigError, match="expected one of"):
            parse_config("correct.accidental_method = sideways")

    def test_unknown_key_names_line(self):
        with pytest.raises(ConfigError, match="line 3: unknown key"):
            parse_config("run.seed = 1\n\nrun.seeed = 2\n")

    def test_duplicate_key_names_line(self):
        with pytest.raises(ConfigError, match="line 2: duplicate key"):
            parse_config("run.seed = 1\nrun.seed = 2\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1: expected key"):
            parse_config("run.seed 1")

    def test_bad_number(self):
        with pytest.raises(ConfigError, match="line 1: bad value"):
            parse_config("run.frames = many")

    def test_crosstalk_keys(self):
        settings = parse_config(
            "crosstalk.p_1_0 = 1e-3\ncrosstalk.p_-1_0 = 2e-3\n"
            "crosstalk.p_0_-1 = 5e-4\n")
        assert settings["crosstalk.p_1_0"] == 1e-3
        assert settings["crosstalk.p_-1_0"] == 2e-3
        assert settings["crosstalk.p_0_-1"] == 5e-4

    def test_crosstalk_zero_offset_rejected(self):
        with pytest.raises(ConfigError, match="zero offset"):
            parse_config("crosstalk.p_0_0 = 1e-3")

    def test_crosstalk_bad_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("crosstalk.p_1_0 = lots")

    @pytest.mark.parametrize("key,value,message", BAD_VALUES + [
        ("crosstalk.p_1_0", "-inf", "is not finite")])
    def test_out_of_domain_float_rejected(self, key, value, message):
        with pytest.raises(ConfigError,
                           match=f"line 2: {re.escape(key)} {message}"):
            parse_config(f"run.seed = 1\n{key} = {value}\n")

    @pytest.mark.parametrize("key,value,message", BAD_VALUES)
    def test_out_of_domain_float_exits_2(self, tmp_path, capsys, key, value,
                                         message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"run.frames = 70000\n{key} = {value}\n")
        assert main(["pipeline", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("run.seed = 42\n# note\nsensor.n_x = 16\n")
        settings = load_config(path)
        assert settings["run.seed"] == 42
        assert settings["sensor.n_x"] == 16


class TestBuilders:
    def test_model_from_targets(self):
        targets = target_widths(defaults())
        assert targets == {"delta_x_um": 37.3, "delta_qx_per_mm": 4.0,
                           "delta_y_um": 37.3, "delta_qy_per_mm": 3.4}
        assert build_model(defaults()) == \
            DoubleGaussianModel.from_inferred_targets(**targets)
        settings = parse_config("model.target_delta_qy_per_mm = 3.0")
        assert target_widths(settings)["delta_qy_per_mm"] == 3.0

    def test_model_width_override_rejected(self):
        # the targets are the only statement of the model
        with pytest.raises(ConfigError,
                           match="line 1: unknown key 'model.sigma_q_plus_x'"):
            parse_config(
                "model.sigma_q_plus_x = 2.0\nmodel.sigma_q_minus_x = 20.0\n"
                "model.sigma_q_plus_y = 3.0\nmodel.sigma_q_minus_y = 30.0\n")

    def test_model_partial_override_rejected(self):
        with pytest.raises(ConfigError,
                           match="line 2: unknown key 'model.sigma_q_minus_y'"):
            parse_config("run.seed = 1\nmodel.sigma_q_minus_y = 2.0")

    def test_run_mapping_key_rejected(self):
        # each call names its arm; simulate takes --mapping
        with pytest.raises(ConfigError,
                           match="line 2: unknown key 'run.mapping'"):
            parse_config("run.seed = 1\nrun.mapping = near\n")

    def test_sensor_fields(self):
        settings = parse_config("sensor.dark_rate_hz = 0\n"
                                "sensor.pixel_offset_range_ps = 0\n")
        cfg = build_sensor(settings)
        assert cfg.n_x == 32 and cfg.n_y == 32
        assert cfg.dark_rate_hz == 0.0
        assert cfg.pixel_offsets_ps is None

    def test_negative_offset_range_rejected_by_builder(self):
        settings = {**defaults(), "sensor.pixel_offset_range_ps": -5.0}
        with pytest.raises(ConfigError, match="nonnegative"):
            build_sensor(settings)

    def test_sensor_offsets_follow_seed(self):
        base = parse_config("run.seed = 7")
        cfg = build_sensor(base)
        assert cfg.pixel_offsets_ps is not None
        want = draw_pixel_offsets(build_sensor(
            parse_config("run.seed = 7\nsensor.pixel_offset_range_ps = 0")),
            400.0, seed=7)
        np.testing.assert_array_equal(cfg.pixel_offsets_ps,
                                      want.pixel_offsets_ps)
        other = build_sensor(parse_config("run.seed = 8"))
        assert not np.array_equal(cfg.pixel_offsets_ps,
                                  other.pixel_offsets_ps)

    def test_mapping_modes(self):
        settings = defaults()
        with pytest.raises(TypeError):
            build_mapping(settings)
        near = build_mapping(settings, mode="near")
        assert near.mode == "near"
        assert near.magnification == 9.0
        far = build_mapping(settings, mode="far")
        assert far.focal_length_mm == 150.0
        assert far.wavelength_nm == 810.0

    def test_mapping_center_offsets(self):
        settings = parse_config("mapping.center_offset_x_px = 0.5\n"
                                "mapping.center_offset_y_px = -1.5\n")
        mapping = build_mapping(settings, mode="near")
        assert mapping.center_offset_px == (0.5, -1.5)

    def test_crosstalk_empty(self):
        spec = build_crosstalk(defaults())
        assert spec.is_empty

    def test_crosstalk_entries(self):
        settings = parse_config("crosstalk.p_1_0 = 1e-3\n"
                                "crosstalk.p_0_-1 = 5e-4\n")
        spec = build_crosstalk(settings)
        assert not spec.is_empty
        assert spec.probability(1, 0) == 1e-3
        assert spec.probability(0, -1) == 5e-4
        assert spec.probability(-1, 0) == 0.0


class TestReferenceConfig:
    def test_reference_file_loads(self):
        settings = load_config("default.cfg")
        assert settings["run.frames"] == 20_000_000
        assert settings["run.seed"] == 103
        assert settings["run.pairs_per_frame_near"] == 0.05
        assert settings["run.pairs_per_frame_far"] == 0.001
        assert settings["sensor.efficiency"] == 0.5
        assert settings["correct.apply_crosstalk"] is True
        for key in ("crosstalk.p_1_0", "crosstalk.p_-1_0",
                    "crosstalk.p_0_1", "crosstalk.p_0_-1"):
            assert settings[key] == 1e-3
