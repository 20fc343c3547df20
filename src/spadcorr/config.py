"""Flat key=value run configuration.

One assignment per line, full-line comments with '#', no sections. Unknown
and duplicate keys are rejected so typos fail loudly instead of silently
running defaults, and so are non-finite numbers (nan, inf) and a negative
pixel offset range. Cross-talk probabilities use one key per pixel offset:

    crosstalk.p_1_0 = 1e-3      # echo at (dx, dy) = (+1, 0)
"""

from __future__ import annotations

import math
import re

from .errors import ConfigError
from .optics import DoubleGaussianModel, OpticalMapping
from .sensor import CrosstalkSpec, SensorConfig, draw_pixel_offsets

_BOOL = {"true": True, "yes": True, "1": True,
         "false": False, "no": False, "0": False}


def _as_bool(text: str) -> bool:
    try:
        return _BOOL[text.strip().lower()]
    except KeyError:
        raise ConfigError(f"not a boolean: {text!r}") from None


def _as_choice(*choices):
    def convert(text):
        if text not in choices:
            raise ConfigError(f"expected one of {choices}, got {text!r}")
        return text
    return convert


# key -> (converter, default); None means "no default, only meaningful if set"
SCHEMA = {
    "model.target_delta_x_um": (float, 37.3),
    "model.target_delta_qx_per_mm": (float, 4.0),
    "model.target_delta_y_um": (float, 37.3),
    "model.target_delta_qy_per_mm": (float, 3.4),
    "sensor.n_x": (int, 32),
    "sensor.n_y": (int, 32),
    "sensor.pixel_pitch_um": (float, 44.67),
    "sensor.tdc_bin_ps": (float, 205.0),
    "sensor.bins_per_frame": (int, 255),
    "sensor.efficiency": (float, 0.5),
    "sensor.dark_rate_hz": (float, 1000.0),
    "sensor.jitter_sigma_ps": (float, 200.0),
    "sensor.pixel_offset_range_ps": (float, 400.0),
    "mapping.near.magnification": (float, 9.0),
    "mapping.far.focal_length_mm": (float, 150.0),
    "mapping.far.wavelength_nm": (float, 810.0),
    "mapping.center_offset_x_px": (float, 0.0),
    "mapping.center_offset_y_px": (float, 0.0),
    "run.frames": (int, 1000000),
    "run.pairs_per_frame": (float, 2.5),
    "run.pairs_per_frame_near": (float, None),
    "run.pairs_per_frame_far": (float, None),
    "run.seed": (int, 0),
    "run.workers": (int, 1),
    "correlate.window": (int, 10),
    "correlate.shift": (int, 20),
    "correct.accidental_method": (
        _as_choice("shifted_window", "g1_product"), "shifted_window"),
    "correct.mask_radius": (int, 1),
    "correct.crosstalk_inner_window": (int, 29),
    "correct.apply_crosstalk": (_as_bool, True),
    "correct.characterization_frames": (int, 2000000),
    "correct.characterization_dark_hz": (float, 30000.0),
    "epr.min_column_fraction": (float, 0.01),
}

_XTALK_KEY = re.compile(r"^crosstalk\.p_(-?\d+)_(-?\d+)$")


def defaults() -> dict:
    return {k: v for k, (_, v) in SCHEMA.items() if v is not None}


def parse_config(text: str) -> dict:
    """Parse key=value lines into a settings dict on top of the defaults."""
    settings = defaults()
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        m = _XTALK_KEY.match(key)
        if key in SCHEMA:
            convert = SCHEMA[key][0]
        elif m:
            if (int(m.group(1)), int(m.group(2))) == (0, 0):
                raise ConfigError(f"line {lineno}: cross-talk at zero offset")
            convert = float
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            settings[key] = got = convert(value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: bad value for {key}: {value!r}") from None
        if isinstance(got, float) and not math.isfinite(got):
            raise ConfigError(f"line {lineno}: {key} is not finite: {value!r}")
        if key == "sensor.pixel_offset_range_ps" and got < 0:
            raise ConfigError(f"line {lineno}: {key} must be nonnegative")
        if key == "epr.min_column_fraction" and not 0.0 < got <= 1.0:
            raise ConfigError(
                f"line {lineno}: {key} must be above 0 and at most 1")
    return settings


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def target_widths(settings: dict) -> dict:
    """The four inferred-width targets, keyed as the EPR report keys them.

    They state the source model: build_model solves for the double
    Gaussian that reproduces them, so they are also its prediction.
    """
    return {key: settings[f"model.target_{key}"]
            for key in ("delta_x_um", "delta_qx_per_mm",
                        "delta_y_um", "delta_qy_per_mm")}


def build_model(settings: dict) -> DoubleGaussianModel:
    return DoubleGaussianModel.from_inferred_targets(**target_widths(settings))


def build_sensor(settings: dict) -> SensorConfig:
    """Sensor with per-pixel offsets drawn from the run seed when enabled."""
    cfg = SensorConfig(
        n_x=settings["sensor.n_x"],
        n_y=settings["sensor.n_y"],
        pixel_pitch_um=settings["sensor.pixel_pitch_um"],
        tdc_bin_ps=settings["sensor.tdc_bin_ps"],
        bins_per_frame=settings["sensor.bins_per_frame"],
        efficiency=settings["sensor.efficiency"],
        dark_rate_hz=settings["sensor.dark_rate_hz"],
        jitter_sigma_ps=settings["sensor.jitter_sigma_ps"])
    rng_range = settings["sensor.pixel_offset_range_ps"]
    if rng_range:
        cfg = draw_pixel_offsets(cfg, rng_range, seed=settings["run.seed"])
    return cfg


def build_mapping(settings: dict, mode: str) -> OpticalMapping:
    return OpticalMapping(
        mode=mode,
        magnification=settings["mapping.near.magnification"],
        focal_length_mm=settings["mapping.far.focal_length_mm"],
        wavelength_nm=settings["mapping.far.wavelength_nm"],
        center_offset_px=(settings["mapping.center_offset_x_px"],
                          settings["mapping.center_offset_y_px"]))


def build_crosstalk(settings: dict) -> CrosstalkSpec:
    probs = {}
    for key, value in settings.items():
        m = _XTALK_KEY.match(key)
        if m:
            probs[(int(m.group(1)), int(m.group(2)))] = value
    return CrosstalkSpec.from_dict(probs) if probs else CrosstalkSpec.none()
