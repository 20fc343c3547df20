"""The benchmark's three workloads, driving spadcorr through its public API.

Each workload builds its inputs in ``setup`` (timed as set-up, repeated by
the runner), runs one round of operations in ``run_round`` and checks a
round's outputs in ``check``; ``check_run`` holds the checks that need one
computation per run. spadcorr is called through its module attributes
(``pipeline.run_pair_study``, not an imported name) so that a traced run
reaches the wrapped functions.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import time

import numpy as np

from spadcorr import config as cfgmod
from spadcorr import correlator, epr, errors, pipeline, sensor

import checks

CHUNK = sensor.CHUNK_FRAMES
ARMS = ("far", "near")


class ArmMismatch(Exception):
    """The file path did not reproduce the closed loop's arm."""


class Round:
    """Operations of one round; only the timed ones add to wall_s and cpu_s.

    An operation that raises a SpadError, or an ArmMismatch, counts as
    failed and returns None. Tracing is active only inside timed
    operations, so untimed work never shows in the per-layer figures.
    """

    def __init__(self, tracing=None):
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.events = 0
        self.attempted = 0
        self.failures = []
        self._tracing = tracing or contextlib.nullcontext

    def op(self, name, fn, *args, timed=True, **kwargs):
        self.attempted += 1
        context = self._tracing() if timed else contextlib.nullcontext()
        start, cpu = time.perf_counter(), time.process_time()
        try:
            with context:
                return fn(*args, **kwargs)
        except (errors.SpadError, ArmMismatch) as exc:
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if timed:
                self.wall_s += time.perf_counter() - start
                self.cpu_s += time.process_time() - cpu


def arm_rate(settings: dict, mode: str) -> float:
    """Pair rate of one arm as documented: the per-arm key, else the base."""
    rate = settings.get(f"run.pairs_per_frame_{mode}")
    return settings["run.pairs_per_frame"] if rate is None else rate


def arm_seed(settings: dict, mode: str) -> int:
    """Far arm on run.seed, near arm on run.seed + 1."""
    return settings["run.seed"] + (1 if mode == "near" else 0)


def _first_chunk(settings, mode, pairs_per_frame, seed, sensor_cfg=None):
    batches = sensor.simulate_frames(
        cfgmod.build_model(settings), cfgmod.build_mapping(settings, mode),
        sensor_cfg or cfgmod.build_sensor(settings), CHUNK, pairs_per_frame,
        crosstalk=cfgmod.build_crosstalk(settings), seed=seed)
    return next(iter(batches))


class Workload:
    """Common set-up: the shipped config with the workload seed applied."""

    name = ""
    setups = 5

    def __init__(self, config_path, seed, workdir, overrides=None):
        self.config_path = config_path
        self.seed = seed
        self.workdir = workdir
        self.overrides = dict(overrides or {})
        self.settings = None

    def load_settings(self) -> dict:
        settings = cfgmod.load_config(self.config_path)
        settings["run.seed"] = self.seed
        # one thread, so the figures measure the program, not the scheduler
        settings["run.workers"] = 1
        settings.update(self.overrides)
        return settings

    def check_run(self) -> None:
        """Checks made once per run; none by default."""


class ClosedLoop(Workload):
    """run_pair_study on the shipped config: two arms plus characterization.

    Set-up loads the config and warms every stage of the loop on one chunk
    per stream, short of the fits, so lazy initialisation is not timed.
    """

    name = "closed_loop"

    def setup(self):
        self.settings = self.load_settings()
        warm = dict(self.settings, **{
            "run.frames": CHUNK, "correct.characterization_frames": CHUNK})
        model = cfgmod.build_model(warm)
        sensor_cfg = cfgmod.build_sensor(warm)
        cmap = pipeline.characterize_crosstalk(warm)
        for mode in ARMS:
            acc = pipeline.simulate_accumulator(
                model, cfgmod.build_mapping(warm, mode), sensor_cfg,
                n_frames=CHUNK, pairs_per_frame=arm_rate(warm, mode),
                crosstalk=cfgmod.build_crosstalk(warm),
                seed=arm_seed(warm, mode), window=warm["correlate.window"],
                shift=warm["correlate.shift"])
            pipeline.correct_chain(
                acc, accidental_method=warm["correct.accidental_method"],
                crosstalk_map=cmap, mask_radius=warm["correct.mask_radius"])
        self._characterization_events = None

    def run_round(self, tracing=None):
        rnd = Round(tracing)
        result = rnd.op("run_pair_study", pipeline.run_pair_study,
                        self.settings)
        if result is not None:
            rnd.events = (int(result.acc_far.g1.sum())
                          + int(result.acc_near.g1.sum())
                          + self.characterization_events())
        return rnd, result

    def characterization_events(self) -> int:
        """Detections in the characterization stream, counted once."""
        if self._characterization_events is None:
            s = self.settings
            sensor_cfg = dataclasses.replace(
                cfgmod.build_sensor(s),
                dark_rate_hz=s["correct.characterization_dark_hz"])
            self._characterization_events = sum(
                batch.n_events for batch in sensor.simulate_frames(
                    cfgmod.build_model(s), cfgmod.build_mapping(s, "far"),
                    sensor_cfg, s["correct.characterization_frames"], 0.0,
                    crosstalk=cfgmod.build_crosstalk(s), seed=s["run.seed"] + 2))
        return self._characterization_events

    def check(self, result):
        checks.require(result is not None, "run_pair_study produced nothing")
        for mode, acc in (("far", result.acc_far), ("near", result.acc_near)):
            checks.frames_requested(acc, self.settings["run.frames"], mode)
            checks.accumulator_symmetries(acc, mode)
        checks.widths_near_targets(result.report,
                                   checks.model_targets(self.settings), 0.15)
        checks.below_bound(result.report)

    def first_chunks(self):
        """Each stream's first chunk accumulated by spadcorr and by a loop.

        Yields (label, accumulator, pair-loop arrays) for the far arm, the
        near arm and the characterization stream.
        """
        s = self.settings
        dark = dataclasses.replace(
            cfgmod.build_sensor(s),
            dark_rate_hz=s["correct.characterization_dark_hz"])
        streams = [(mode, arm_rate(s, mode), arm_seed(s, mode), None)
                   for mode in ARMS]
        streams.append(("characterization", 0.0, s["run.seed"] + 2, dark))
        for label, rate, seed, sensor_cfg in streams:
            mode = "near" if label == "near" else "far"
            batch = _first_chunk(s, mode, rate, seed, sensor_cfg)
            acc = correlator.CorrelationAccumulator(
                n_x=s["sensor.n_x"], n_y=s["sensor.n_y"],
                bins_per_frame=s["sensor.bins_per_frame"],
                window=s["correlate.window"], shift=s["correlate.shift"],
                mapping_mode=mode)
            acc.add_batch(batch)
            yield f"{label} first chunk", acc, checks.pair_loop_accumulator(
                batch, n_pixels=acc.n_pixels,
                bins_per_frame=acc.bins_per_frame, window=acc.window,
                shift=acc.shift)

    def check_run(self):
        for label, acc, want in self.first_chunks():
            checks.same_accumulator(acc, want, label)


class FilePath(Workload):
    """The stage-by-stage recipe through event files and containers.

    One round, timed: per arm simulate_to_file -> accumulate_file -> save
    -> load -> correct_chain (no cross-talk map, as the recipe's
    --no-crosstalk). Then, untimed, one operation per arm that reproduces
    the closed loop's arm through files at fixed inputs. evaluate_epr is
    not part of the round: at this frame count its near-field 2D fit does
    not converge on some seeds.
    """

    name = "file_path"
    frames = 300_000
    reproduce_frames = 16_384

    def setup(self):
        self.settings = self.load_settings()
        # the shipped config, seed included: the reproduction operations
        # do not depend on the workload seed
        self.reference = cfgmod.load_config(self.config_path)
        self._expected = None
        for mode in ARMS:
            self._arm(mode, frames=CHUNK)

    def _arm(self, mode, frames):
        s = self.settings
        evt = self.workdir / f"{mode}.evt"
        blk = self.workdir / f"{mode}.acc.blk"
        pipeline.simulate_to_file(s, mode, evt, frames=frames)
        acc = pipeline.accumulate_file(evt, window=s["correlate.window"],
                                       shift=s["correlate.shift"])
        acc.save(blk)
        acc = correlator.CorrelationAccumulator.load(blk)
        corr, _ = pipeline.correct_chain(
            acc, accidental_method=s["correct.accidental_method"],
            mask_radius=s["correct.mask_radius"],
            inner_window=s["correct.crosstalk_inner_window"])
        return acc, corr

    def _reproduce(self, mode):
        ref = self.reference
        n = self.reproduce_frames
        path = self.workdir / f"reproduce-{mode}.evt"
        pipeline.simulate_to_file(ref, mode, path, frames=n)
        got = pipeline.accumulate_file(path, window=ref["correlate.window"],
                                       shift=ref["correlate.shift"])
        want = pipeline.simulate_accumulator(
            cfgmod.build_model(ref), cfgmod.build_mapping(ref, mode),
            cfgmod.build_sensor(ref), n_frames=n,
            pairs_per_frame=arm_rate(ref, mode),
            crosstalk=cfgmod.build_crosstalk(ref), seed=arm_seed(ref, mode),
            window=ref["correlate.window"], shift=ref["correlate.shift"])
        try:
            checks.same_accumulator(got, want, f"{mode} arm")
        except checks.CheckFailed:
            raise ArmMismatch(
                f"{mode} arm at {n} frames: file path {int(got.g1.sum())} "
                f"singles, {int(got.g2.sum()) // 2} windowed pairs; closed "
                f"loop {int(want.g1.sum())} and {int(want.g2.sum()) // 2}"
            ) from None

    def run_round(self, tracing=None):
        rnd = Round(tracing)
        arms = {mode: rnd.op(f"{mode} arm through files", self._arm, mode,
                             frames=self.frames) for mode in ARMS}
        rnd.events = sum(int(arm[0].g1.sum()) for arm in arms.values()
                         if arm is not None)
        for mode in ARMS:
            rnd.op(f"reproduce closed-loop {mode} arm", self._reproduce, mode,
                   timed=False)
        return rnd, arms

    def expected(self):
        """In-memory accumulators and file arithmetic of the same streams."""
        if self._expected is None:
            s = self.settings
            self._expected = {}
            for mode in ARMS:
                batches = list(sensor.simulate_frames(
                    cfgmod.build_model(s), cfgmod.build_mapping(s, mode),
                    cfgmod.build_sensor(s), self.frames,
                    s["run.pairs_per_frame"],
                    crosstalk=cfgmod.build_crosstalk(s), seed=s["run.seed"]))
                acc = correlator.accumulate(
                    batches, window=s["correlate.window"],
                    shift=s["correlate.shift"], n_x=s["sensor.n_x"],
                    n_y=s["sensor.n_y"],
                    bins_per_frame=s["sensor.bins_per_frame"],
                    mapping_mode=mode)
                stored = sum(np.unique(b.frame_ids).size for b in batches)
                events = sum(b.n_events for b in batches)
                self._expected[mode] = (acc, stored, events)
        return self._expected

    def check(self, arms):
        s = self.settings
        for mode in ARMS:
            checks.require(arms[mode] is not None, f"{mode} arm failed")
            got, corr = arms[mode]
            acc, stored, events = self.expected()[mode]
            checks.same_accumulator(got, acc, f"{mode} file vs in-memory")
            checks.event_file_size(self.workdir / f"{mode}.evt", stored,
                                   events)
            checks.shifted_window_correction(corr, acc,
                                             s["correct.mask_radius"])


# Accidental method x cross-talk map x mask radius 1 or 2. Without a mask
# the neighbour pairs stay in the sum/difference profiles. Without a map
# too, the peaks fit does not converge, for either method and on every
# seed. With the map, the far arm's peaks fit along y comes out far too
# wide on some seeds (delta_qy 14 and 264 per mm against 3.4 at seed
# 1136291395), so the result fails by seed. All four radius-0 variants of
# the twelve are left out.
VARIANTS = tuple(itertools.product(
    ("shifted_window", "g1_product"), (True, False), (1, 2)))


class Analysis(Workload):
    """Re-analysis sweep over saved accumulators of both reference arms.

    Set-up simulates both arms at the shipped statistics, saves them, and
    characterizes the cross-talk map. One round: every variant loads both
    accumulators, corrects them and evaluates the report.
    """

    name = "analysis"
    setups = 3

    def setup(self):
        s = self.settings = self.load_settings()
        model = cfgmod.build_model(s)
        sensor_cfg = cfgmod.build_sensor(s)
        for mode in ARMS:
            acc = pipeline.simulate_accumulator(
                model, cfgmod.build_mapping(s, mode), sensor_cfg,
                n_frames=s["run.frames"], pairs_per_frame=arm_rate(s, mode),
                crosstalk=cfgmod.build_crosstalk(s), seed=arm_seed(s, mode),
                workers=s["run.workers"], window=s["correlate.window"],
                shift=s["correlate.shift"])
            acc.save(self.workdir / f"{mode}.acc.blk")
        self.cmap = pipeline.characterize_crosstalk(s)

    def _variant(self, method, use_map, radius):
        s = self.settings
        accs = {mode: correlator.CorrelationAccumulator.load(
            self.workdir / f"{mode}.acc.blk") for mode in ARMS}
        corr = {mode: pipeline.correct_chain(
            acc, accidental_method=method,
            crosstalk_map=self.cmap if use_map else None,
            mask_radius=radius,
            inner_window=s["correct.crosstalk_inner_window"])[0]
            for mode, acc in accs.items()}
        report = epr.evaluate_epr(
            corr["near"], corr["far"], cfgmod.build_mapping(s, "near"),
            cfgmod.build_mapping(s, "far"),
            pixel_pitch_um=s["sensor.pixel_pitch_um"],
            min_column_fraction=s["epr.min_column_fraction"])
        return report, sum(int(acc.g1.sum()) for acc in accs.values())

    def run_round(self, tracing=None):
        rnd = Round(tracing)
        reports = {}
        for variant in VARIANTS:
            out = rnd.op(" ".join(map(str, variant)), self._variant, *variant)
            reports[variant] = None if out is None else out[0]
            rnd.events += 0 if out is None else out[1]
        return rnd, reports

    def check(self, reports):
        targets = checks.model_targets(self.settings)
        for (method, use_map, radius), report in reports.items():
            label = f"{method}, map {'on' if use_map else 'off'}, r={radius}"
            checks.require(report is not None, f"{label}: failed")
            try:
                checks.all_finite(report)
                checks.below_bound(report)
                if method == "shifted_window":
                    checks.widths_near_targets(report, targets, 0.15)
            except checks.CheckFailed as exc:
                raise checks.CheckFailed(f"{label}: {exc}") from None


WORKLOADS = {cls.name: cls for cls in (ClosedLoop, FilePath, Analysis)}
