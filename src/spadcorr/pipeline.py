"""End-to-end orchestration: simulate, accumulate, correct, evaluate.

The CLI subcommands and the in-memory closed-loop study share these
functions, but the file path does not reproduce run_pair_study:
simulate_to_file runs either arm on run.pairs_per_frame and run.seed, not
on the per-arm rates and the near arm's run.seed + 1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import config as cfgmod
from .correlator import (
    CorrectedG2,
    CorrelationAccumulator,
    accumulate,
    check_inner_window,
    correct_crosstalk,
    estimate_accidentals,
    estimate_crosstalk,
    mask_neighbors,
    normalize,
    subtract_accidentals,
)
from .epr import EprReport, evaluate_epr
from .errors import ConfigError
from .eventfile import EventFileReader, EventFileWriter
from .sensor import CrosstalkMap, simulate_frames


def simulate_accumulator(model, mapping, sensor_cfg, *, n_frames,
                         pairs_per_frame, crosstalk=None, seed=0, workers=1,
                         window=10, shift=20) -> CorrelationAccumulator:
    """Stream simulated frames into an accumulator."""
    return accumulate(
        simulate_frames(model, mapping, sensor_cfg, n_frames,
                        pairs_per_frame, crosstalk=crosstalk, seed=seed,
                        workers=workers),
        window=window, shift=shift, n_x=sensor_cfg.n_x, n_y=sensor_cfg.n_y,
        bins_per_frame=sensor_cfg.bins_per_frame, mapping_mode=mapping.mode)


def simulate_to_file(settings: dict, mode: str, out_path, *,
                     frames=None) -> int:
    """Simulate one arm on run.seed and run.workers and write the event
    file; frames overrides run.frames. Returns the frame count."""
    model = cfgmod.build_model(settings)
    sensor_cfg = cfgmod.build_sensor(settings)
    mapping = cfgmod.build_mapping(settings, mode)
    crosstalk = cfgmod.build_crosstalk(settings)
    n_frames = settings["run.frames"] if frames is None else frames
    writer = EventFileWriter(
        out_path, n_x=sensor_cfg.n_x, n_y=sensor_cfg.n_y,
        tdc_bin_ps=sensor_cfg.tdc_bin_ps,
        bins_per_frame=sensor_cfg.bins_per_frame, mapping_mode=mapping.mode)
    try:
        for batch in simulate_frames(model, mapping, sensor_cfg, n_frames,
                                     settings["run.pairs_per_frame"],
                                     crosstalk=crosstalk,
                                     seed=settings["run.seed"],
                                     workers=settings["run.workers"]):
            writer.add_batch(batch)
        return writer.close(total_frames=n_frames)
    except BaseException:
        writer.discard()   # no handle and no partial file left behind
        raise


def accumulate_file(path, *, window=10, shift=20) -> CorrelationAccumulator:
    """Accumulate an event file one decoded block at a time; geometry and
    mapping come from its header."""
    reader = EventFileReader(path)
    header = reader.header
    return accumulate(reader.iter_batches(),
                      window=window, shift=shift, n_x=header.n_x,
                      n_y=header.n_y, bins_per_frame=header.bins_per_frame,
                      mapping_mode=header.mapping_mode)


def correct_chain(acc: CorrelationAccumulator, *,
                  accidental_method="shifted_window",
                  crosstalk_map: CrosstalkMap = None, estimate_map=False,
                  mask_radius=1, inner_window=29):
    """Normalize and run the correction chain on one accumulator.

    With estimate_map the cross-talk map is measured from this accumulator
    with its accidental method; otherwise a map may be supplied (a sensor
    property, so one characterization serves every arm), but not both
    (ConfigError). Returns the corrected tensor and whichever map was used,
    None when skipped.
    """
    if estimate_map and crosstalk_map is not None:
        raise ConfigError("a supplied cross-talk map cannot also be estimated")
    cmap = crosstalk_map
    if estimate_map:
        cmap = estimate_crosstalk(acc, accidental_method, inner_window)
    estimate = estimate_accidentals(acc, accidental_method)
    corr = subtract_accidentals(normalize(acc), estimate)
    del estimate   # one tensor less while the later stages allocate theirs
    if cmap is not None:
        corr = correct_crosstalk(corr, cmap)
    if mask_radius is not None:
        corr = mask_neighbors(corr, radius=mask_radius)
    return corr, cmap


@dataclass(eq=False)
class PairStudyResult:
    settings: dict
    acc_near: CorrelationAccumulator
    acc_far: CorrelationAccumulator
    corr_near: CorrectedG2
    corr_far: CorrectedG2
    crosstalk_map: CrosstalkMap
    report: EprReport


def characterize_crosstalk(settings: dict) -> CrosstalkMap:
    """Measure the cross-talk map on a dedicated uncorrelated run.

    Estimating on a pair run would count genuine coincidences as
    cross-talk, so the characterization illuminates the sensor with
    uncorrelated light only: zero pairs, dark rate boosted to give
    usable statistics. The map is estimated from its accumulator with
    correct.accidental_method; it is a sensor property and reusable.
    """
    sensor_cfg = replace(
        cfgmod.build_sensor(settings),
        dark_rate_hz=settings["correct.characterization_dark_hz"])
    model = cfgmod.build_model(settings)
    mapping = cfgmod.build_mapping(settings, "far")
    acc = simulate_accumulator(
        model, mapping, sensor_cfg,
        n_frames=settings["correct.characterization_frames"],
        pairs_per_frame=0.0, crosstalk=cfgmod.build_crosstalk(settings),
        seed=settings["run.seed"] + 2, workers=settings["run.workers"],
        window=settings["correlate.window"],
        shift=settings["correlate.shift"])
    return estimate_crosstalk(acc, settings["correct.accidental_method"],
                              settings["correct.crosstalk_inner_window"])


def run_pair_study(settings: dict) -> PairStudyResult:
    """Full closed loop over both arms.

    The far-field arm runs on run.seed and the near-field arm on
    run.seed + 1 so the two observations are independent. The cross-talk
    map comes from a separate uncorrelated characterization run on
    run.seed + 2 and is applied to both arms. Its inner window must fit
    the sensor (ConfigError before any simulation).
    """
    if settings["correct.apply_crosstalk"]:
        check_inner_window(settings["correct.crosstalk_inner_window"],
                           settings["sensor.n_x"], settings["sensor.n_y"],
                           ConfigError)
    model = cfgmod.build_model(settings)
    sensor_cfg = cfgmod.build_sensor(settings)
    crosstalk = cfgmod.build_crosstalk(settings)
    map_far = cfgmod.build_mapping(settings, "far")
    map_near = cfgmod.build_mapping(settings, "near")
    pairs = settings["run.pairs_per_frame"]
    # an explicit 0 is kept: it configures a dark-only arm
    pairs_far, pairs_near = (
        pairs if settings.get(key) is None else settings[key]
        for key in ("run.pairs_per_frame_far", "run.pairs_per_frame_near"))
    common = dict(n_frames=settings["run.frames"], crosstalk=crosstalk,
                  workers=settings["run.workers"],
                  window=settings["correlate.window"],
                  shift=settings["correlate.shift"])
    acc_far = simulate_accumulator(model, map_far, sensor_cfg,
                                   pairs_per_frame=pairs_far,
                                   seed=settings["run.seed"], **common)
    acc_near = simulate_accumulator(model, map_near, sensor_cfg,
                                    pairs_per_frame=pairs_near,
                                    seed=settings["run.seed"] + 1, **common)
    cmap = (characterize_crosstalk(settings)
            if settings["correct.apply_crosstalk"] else None)
    chain = dict(accidental_method=settings["correct.accidental_method"],
                 mask_radius=settings["correct.mask_radius"])
    corr_far, _ = correct_chain(acc_far, crosstalk_map=cmap, **chain)
    corr_near, _ = correct_chain(acc_near, crosstalk_map=cmap, **chain)
    report = evaluate_epr(
        corr_near, corr_far, map_near, map_far,
        pixel_pitch_um=settings["sensor.pixel_pitch_um"],
        min_column_fraction=settings["epr.min_column_fraction"],
        expected=cfgmod.target_widths(settings))
    return PairStudyResult(settings=settings, acc_near=acc_near,
                           acc_far=acc_far, corr_near=corr_near,
                           corr_far=corr_far, crosstalk_map=cmap,
                           report=report)
