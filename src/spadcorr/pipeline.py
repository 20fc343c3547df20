"""End-to-end orchestration: simulate, accumulate, correct, evaluate.

The CLI subcommands and the in-memory closed-loop study share these
functions so file-based and direct runs execute identical arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import config as cfgmod
from .correlator import (
    CorrectedG2,
    CorrelationAccumulator,
    CrosstalkMap,
    accumulate,
    correct_crosstalk,
    estimate_accidentals,
    estimate_crosstalk,
    mask_neighbors,
    normalize,
    subtract_accidentals,
)
from .epr import EprReport, evaluate_epr
from .eventfile import EventFileWriter, read_batches, read_header
from .sensor import simulate_frames


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


def simulate_to_file(settings: dict, mode: str, out_path, *, frames=None,
                     seed=None, workers=None) -> int:
    """Run one simulation and write the event file; returns the frame count."""
    model = cfgmod.build_model(settings)
    sensor_cfg = cfgmod.build_sensor(settings)
    mapping = cfgmod.build_mapping(settings, mode)
    crosstalk = cfgmod.build_crosstalk(settings)
    n_frames = settings["run.frames"] if frames is None else frames
    seed = settings["run.seed"] if seed is None else seed
    workers = settings["run.workers"] if workers is None else workers
    writer = EventFileWriter(
        out_path, n_x=sensor_cfg.n_x, n_y=sensor_cfg.n_y,
        tdc_bin_ps=sensor_cfg.tdc_bin_ps,
        bins_per_frame=sensor_cfg.bins_per_frame, mapping_mode=mapping.mode)
    for batch in simulate_frames(model, mapping, sensor_cfg, n_frames,
                                 settings["run.pairs_per_frame"],
                                 crosstalk=crosstalk, seed=seed,
                                 workers=workers):
        writer.add_batch(batch)
    return writer.close(total_frames=n_frames)


def accumulate_file(path, *, window=10, shift=20,
                    frames_per_batch=65536) -> CorrelationAccumulator:
    """Accumulate an event file; geometry and mapping come from its header."""
    header = read_header(path)
    return accumulate(read_batches(path, frames_per_batch),
                      window=window, shift=shift, n_x=header.n_x,
                      n_y=header.n_y, bins_per_frame=header.bins_per_frame,
                      mapping_mode=header.mapping_mode)


def correct_chain(acc: CorrelationAccumulator, *,
                  accidental_method="shifted_window",
                  crosstalk_map: CrosstalkMap = None, estimate_map=False,
                  mask_radius=1, inner_window=29):
    """Normalize and run the correction chain on one accumulator.

    With estimate_map the cross-talk map is measured from this tensor after
    accidental subtraction; otherwise a map may be supplied (a sensor
    property, so one characterization serves every arm). Returns the
    corrected tensor and whichever map was used, None when skipped.
    """
    corr = normalize(acc)
    corr = subtract_accidentals(
        corr, estimate_accidentals(acc, accidental_method))
    cmap = crosstalk_map
    if estimate_map:
        cmap = estimate_crosstalk(corr, inner_window=inner_window)
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
    usable statistics. The map is a sensor property and reusable.
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
    corr, _ = correct_chain(
        acc, accidental_method=settings["correct.accidental_method"],
        mask_radius=None,
        inner_window=settings["correct.crosstalk_inner_window"])
    return estimate_crosstalk(
        corr, inner_window=settings["correct.crosstalk_inner_window"])


def run_pair_study(settings: dict) -> PairStudyResult:
    """Full closed loop over both arms.

    The far-field arm runs on run.seed and the near-field arm on
    run.seed + 1 so the two observations are independent. The cross-talk
    map comes from a separate uncorrelated characterization run on
    run.seed + 2 and is applied to both arms.
    """
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
                 mask_radius=settings["correct.mask_radius"],
                 inner_window=settings["correct.crosstalk_inner_window"])
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
