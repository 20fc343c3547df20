"""Whole-pipeline checks at the reference settings.

Each test evaluates one numbered criterion, records a PASS/FAIL line for
the terminal summary, then asserts. The first two share one closed-loop
run of default.cfg; everything else builds its own smaller dataset.
"""

import dataclasses
import time

import numpy as np
import pytest

from conftest import record_criterion
from helpers import (
    REFERENCE_CFG,
    batch_of,
    decode_outcome,
    frame_groups,
    oracle_read_batches,
    quadratic_accumulate,
    quadruple_loop_projections,
    random_batch,
    write_event_file,
)
from test_fitting import central_differences

from spadcorr import config as cfgmod
from spadcorr.correlator import (
    accumulate,
    estimate_accidentals,
    normalize,
    project_axes,
    project_sum_diff,
    subtract_accidentals,
)
from spadcorr.errors import (
    BadMagic,
    InvariantViolation,
    OrderViolation,
    RangeViolation,
    TruncatedFile,
)
from spadcorr.eventfile import EventFileReader
from spadcorr.fitting import (
    fit_gaussian_1d,
    fit_gaussian_2d,
    gauss1d_jacobian,
    gauss1d_model,
    gauss2d_jacobian,
    gauss2d_model,
)
from spadcorr.pipeline import (
    accumulate_file,
    characterize_crosstalk,
    run_pair_study,
    simulate_accumulator,
    simulate_to_file,
)
from spadcorr.sensor import (
    SensorConfig,
    draw_pixel_offsets,
    simulate_frames,
)


TARGET_WIDTHS = {"delta_x_um": 37.3, "delta_qx_per_mm": 4.0,
                 "delta_y_um": 37.3, "delta_qy_per_mm": 3.4}


@pytest.fixture(scope="module")
def locked_study():
    settings = cfgmod.load_config(REFERENCE_CFG)
    start = time.perf_counter()
    result = run_pair_study(settings)
    return result, time.perf_counter() - start


def test_criterion_1_closed_loop_recovery(locked_study):
    result, runtime = locked_study
    problems = []
    worst = 0.0
    vx_ratios = []
    for name in ("gauss2d", "peaks"):
        m = result.report.methods[name]
        for key, target in TARGET_WIDTHS.items():
            rel = abs(m[key] - target) / target
            worst = max(worst, rel)
            if rel > 0.15:
                problems.append(f"{name}.{key}={m[key]:.3g} off {rel:.0%}")
        for axis in "xy":
            if not m[f"violated_{axis}"]:
                problems.append(f"{name} v_{axis}={m[f'v_{axis}']:.3g} >= 0.25")
        ratio = m["v_x"] / 2.2e-2
        vx_ratios.append(ratio)
        if not (1 / 1.5 <= ratio <= 1.5):
            problems.append(f"{name} v_x ratio {ratio:.2f} outside 1.5x")
    if runtime > 300.0:
        problems.append(f"runtime {runtime:.0f}s > 300s")
    ok = not problems
    record_criterion(
        1, ok,
        f"runtime {runtime:.1f}s, worst width error {worst:.1%}, "
        f"v_x/2.2e-2 = {vx_ratios[0]:.2f} (gauss2d) {vx_ratios[1]:.2f} "
        f"(peaks)" + ("" if ok else f"; {'; '.join(problems)}"))
    assert ok, problems


def test_criterion_2_numerical_overestimates(locked_study):
    result, _ = locked_study
    num = result.report.methods["numerical"]
    margins = []
    for other in ("gauss1d", "gauss2d", "peaks"):
        for axis in "xy":
            margins.append(num[f"v_{axis}"]
                           - result.report.methods[other][f"v_{axis}"])
    ok = all(m >= 0.0 for m in margins)
    record_criterion(
        2, ok,
        f"numerical v_x={num['v_x']:.4g} v_y={num['v_y']:.4g}, smallest "
        f"margin over the fitted methods {min(margins):.2e}")
    assert ok, margins


def test_criterion_3_crosstalk_estimator():
    settings = cfgmod.defaults()
    settings["crosstalk.p_1_0"] = 1e-3
    settings["crosstalk.p_0_1"] = 5e-4
    cmap = characterize_crosstalk(settings)
    p10 = cmap.probability(1, 0)
    p01 = cmap.probability(0, 1)
    r = cmap.radius
    others = cmap.probabilities.copy()
    for dx, dy in ((1, 0), (0, 1), (0, 0)):
        others[dx + r, dy + r] = 0.0
    worst_other = float(np.abs(others).max())
    ok = (abs(p10 - 1e-3) <= 0.2e-3 and abs(p01 - 5e-4) <= 1e-4
          and worst_other < 1e-4)
    record_criterion(
        3, ok,
        f"p(1,0)={p10:.3e} (true 1e-3), p(0,1)={p01:.3e} (true 5e-4), "
        f"largest estimate at an uninjected offset {worst_other:.1e}")
    assert ok, (p10, p01, worst_other)


def test_criterion_4_accidental_subtraction(reference_model, far_mapping):
    sensor = dataclasses.replace(cfgmod.build_sensor(cfgmod.defaults()),
                                 dark_rate_hz=30000.0)
    acc = simulate_accumulator(reference_model, far_mapping, sensor,
                               n_frames=2_000_000, pairs_per_frame=0.0,
                               seed=11)
    off_diag = ~np.eye(acc.g2.shape[0], dtype=bool)
    stats = {}
    ok = True
    for method in ("shifted_window", "g1_product"):
        corr = subtract_accidentals(normalize(acc),
                                    estimate_accidentals(acc, method))
        resid = corr.values[off_diag]
        pooled_mean = float(resid.mean())
        pooled_se = float(resid.std(ddof=1) / np.sqrt(resid.size))
        stats[method] = (pooled_mean, pooled_se)
        ok = ok and abs(pooled_mean) < 3.0 * pooled_se
    detail = ", ".join(f"{m}: mean {v[0]:+.2e} vs 3*SE {3 * v[1]:.2e}"
                       for m, v in stats.items())
    record_criterion(4, ok, detail)
    assert ok, stats


def test_criterion_5_temporal_histogram(locked_study, reference_model,
                                        far_mapping):
    # window capture on clean pairs: unit efficiency, no darks, so every
    # two-detection frame is one fully detected pair
    cfg = draw_pixel_offsets(
        SensorConfig(efficiency=1.0, dark_rate_hz=0.0), 400.0, seed=3)
    pairs_seen = 0
    in_window = 0
    for batch in simulate_frames(reference_model, far_mapping, cfg,
                                 200_000, 0.05, seed=9):
        ids, counts = np.unique(batch.frame_ids, return_counts=True)
        two = ids[counts == 2]
        sel = np.isin(batch.frame_ids, two)
        tdc = batch.tdc[sel].astype(int)
        dt = np.abs(tdc[0::2] - tdc[1::2])
        pairs_seen += two.size
        in_window += int((dt <= 10).sum())
    fraction = in_window / pairs_seen

    # histogram shape on the near arm of the reference run
    hist = locked_study[0].acc_near.dt_hist
    center = hist.size // 2
    floor = np.concatenate([hist[center - 30:center - 10],
                            hist[center + 11:center + 31]])
    floor_mean = floor.mean()
    peak_ratio = hist[center] / floor_mean
    outside = np.concatenate([hist[:center - 10], hist[center + 11:]])
    side_balance = (hist[center - 30:center - 10].mean()
                    / hist[center + 11:center + 31].mean())
    shape_ok = (int(hist.argmax()) == center and peak_ratio > 10.0
                and outside.max() <= 1.5 * floor_mean
                and 0.85 <= side_balance <= 1.15)
    ok = fraction >= 0.99 and shape_ok
    record_criterion(
        5, ok,
        f"{fraction:.3%} of clean pair coincidences within the 10-bin "
        f"window ({pairs_seen} pairs), peak/floor {peak_ratio:.0f}, "
        f"floor side balance {side_balance:.2f}")
    assert ok, (fraction, peak_ratio, side_balance)


def test_criterion_6_fitter():
    x = np.linspace(-10.0, 10.0, 41)
    fit1 = fit_gaussian_1d(x, gauss1d_model([2.0, 3.0, 2.0, 0.0], x))
    got1 = list(fit1.params.values())
    rec1 = fit1.converged and np.allclose(got1, [2.0, 3.0, 2.0, 0.0],
                                          atol=1e-6)
    grid = np.linspace(-15.0, 15.0, 31)
    a, b = [g.ravel() for g in np.meshgrid(grid, grid, indexing="ij")]
    truth2 = [5.0, 0.5, -0.3, 2.0, 6.0, 0.1]
    fit2 = fit_gaussian_2d(gauss2d_model(truth2, a, b).reshape(31, 31),
                           grid, grid)
    got2 = list(fit2.params.values())
    rec2 = fit2.converged and np.allclose(got2, truth2, atol=1e-6)

    rng = np.random.default_rng(42)
    bad_points = 0
    for _ in range(50):
        p = np.array([rng.uniform(0.5, 10.0), rng.uniform(-5.0, 5.0),
                      rng.uniform(0.3, 5.0), rng.uniform(-1.0, 1.0)])
        xs = rng.uniform(-12.0, 12.0, 30)
        jac = gauss1d_jacobian(p, xs)
        fd = central_differences(lambda q: gauss1d_model(q, xs), p)
        if not np.allclose(jac, fd, rtol=1e-6, atol=1e-8):
            bad_points += 1
    for _ in range(50):
        p = np.array([rng.uniform(0.5, 10.0), rng.uniform(-5.0, 5.0),
                      rng.uniform(-5.0, 5.0), rng.uniform(0.3, 5.0),
                      rng.uniform(0.3, 5.0), rng.uniform(-1.0, 1.0)])
        xa = rng.uniform(-12.0, 12.0, 30)
        xb = rng.uniform(-12.0, 12.0, 30)
        jac = gauss2d_jacobian(p, xa, xb)
        fd = central_differences(lambda q: gauss2d_model(q, xa, xb), p)
        if not np.allclose(jac, fd, rtol=1e-6, atol=1e-8):
            bad_points += 1
    ok = rec1 and rec2 and bad_points == 0
    record_criterion(
        6, ok,
        f"noiseless 1D/2D recovery at 1e-6: {rec1}/{rec2}, Jacobian vs "
        f"central differences: {100 - bad_points}/100 points within 1e-6")
    assert ok, (rec1, rec2, bad_points)


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(77)
    batch = random_batch(rng, 100, 1024, 255, max_events=8, p_empty=0.0)
    assert len(frame_groups(batch)) == batch.n_frames == 100
    acc = accumulate(batch, window=10, shift=20, n_x=32, n_y=32,
                     bins_per_frame=255)
    ref = quadratic_accumulate(batch, 32, 32, 255, window=10, shift=20)
    count_equal = (np.array_equal(acc.g2, ref.g2)
                   and np.array_equal(acc.g2_later, ref.g2_later)
                   and np.array_equal(acc.g2_shifted, ref.g2_shifted)
                   and np.array_equal(acc.g1, ref.g1)
                   and np.array_equal(acc.dt_hist, ref.dt_hist))

    proj_equal = True
    for n_x, n_y in ((32, 32), (8, 6)):
        values = rng.random((n_x * n_y, n_x * n_y))
        bx, by, bs, bd = quadruple_loop_projections(values, n_x, n_y)
        g2x, g2y = project_axes(values, n_x, n_y)
        sum_map, diff_map = project_sum_diff(values, n_x, n_y)
        proj_equal = proj_equal and np.allclose(g2x, bx) \
            and np.allclose(g2y, by) and np.allclose(sum_map, bs) \
            and np.allclose(diff_map, bd)
    ok = count_equal and proj_equal
    record_criterion(
        7, ok,
        f"accumulator vs quadratic loop on 100 frames "
        f"({int(acc.g2.sum())} windowed pairs): {count_equal}, projections "
        f"vs quadruple loops: {proj_equal}")
    assert ok


def test_criterion_8_parallel_determinism(tmp_path):
    settings = cfgmod.parse_config(
        "run.frames = 200000\nrun.pairs_per_frame = 0.3\nrun.seed = 44\n"
        "crosstalk.p_1_0 = 1e-3\ncrosstalk.p_0_1 = 1e-3\n")
    one = tmp_path / "w1.evt"
    eight = tmp_path / "w8.evt"
    for path, workers in ((one, 1), (eight, 8)):
        simulate_to_file(settings | {"run.workers": workers}, "far", path)
    files_equal = one.read_bytes() == eight.read_bytes()

    # accumulation has one path; its cut into batches must not show
    s1, s2 = tmp_path / "a1.blk", tmp_path / "a2.blk"
    accumulate(oracle_read_batches(one, 1000), mapping_mode="far").save(s1)
    accumulate_file(one).save(s2)
    snaps_equal = s1.read_bytes() == s2.read_bytes()
    ok = files_equal and snaps_equal
    record_criterion(
        8, ok,
        f"event files byte-identical: {files_equal} "
        f"({one.stat().st_size} bytes), accumulator snapshots of the "
        f"reference decoder at 1000 frames per batch and of accumulate_file "
        f"byte-identical: {snaps_equal}")
    assert ok


def test_criterion_9_io_round_trip_and_corruption(tmp_path):
    rng = np.random.default_rng(99)
    path = tmp_path / "stream.evt"
    bad_streams = 0
    for _ in range(1000):
        batch = random_batch(rng, int(rng.integers(0, 12)), 1024, 255,
                             max_events=5, p_empty=0.3)
        write_event_file(path, batch, total_frames=batch.n_frames)
        got = decode_outcome(lambda: EventFileReader(path).iter_batches())
        same = got == decode_outcome(lambda: oracle_read_batches(path)) == \
            decode_outcome(lambda: [batch] if batch.n_frames else [])
        if not same:
            bad_streams += 1

    full = tmp_path / "full.evt"
    write_event_file(full, batch_of((0, [1, 512, 1024], [0, 100, 254]),
                                    (3, [1024], [254])))
    good = full.read_bytes()
    protected = list(range(0, 12)) + [16, 17]
    rejected = 0
    bad = tmp_path / "bad.evt"
    for pos in protected:
        for delta in (0x01, 0x30, 0x80, 0xFF):
            blob = bytearray(good)
            blob[pos] ^= delta
            bad.write_bytes(bytes(blob))
            try:
                for _ in EventFileReader(bad).iter_batches():
                    pass
            except (BadMagic, RangeViolation, InvariantViolation,
                    TruncatedFile, OrderViolation):
                rejected += 1
    mutations = len(protected) * 4
    ok = bad_streams == 0 and rejected == mutations
    record_criterion(
        9, ok,
        f"1000 random streams round-tripped with {bad_streams} mismatches; "
        f"{rejected}/{mutations} single-byte header corruptions rejected")
    assert ok, (bad_streams, rejected)
