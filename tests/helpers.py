"""Brute-force reference implementations shared by the test modules."""

import collections
import dataclasses
import hashlib
import json
import math
import statistics
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from spadcorr import arraystore, correlator, epr
from spadcorr.config import (
    build_crosstalk,
    build_mapping,
    build_model,
    build_sensor,
    load_config,
)
from spadcorr.correlator import (
    MFRAMES,
    CorrelationAccumulator,
    _axis_offsets,
    _offset_index,
    _over_pairs,
    _window_mass,
    accumulate,
    project_axes,
    project_sum_diff,
)
from spadcorr.errors import (
    EmptyAccumulator,
    InsufficientMask,
    InvariantViolation,
    SpadError,
    OrderViolation,
    RangeViolation,
    TruncatedFile,
    WindowTooLarge,
)
from spadcorr.eventfile import EventFileWriter, read_header
from spadcorr.fitting import (
    FINAL_STEP_TOL,
    FINAL_STEPS,
    MAX_ITERATIONS,
    REL_STEP_TOL,
    LMResult,
)
from spadcorr.sensor import CrosstalkMap, FrameBatch, simulate_frames

REFERENCE_CFG = Path(__file__).resolve().parent.parent / "default.cfg"
# one full simulation chunk plus a short tail chunk
PINNED_FRAMES = 65536 + 1234
ACC_FIELDS = ("g2", "g2_shifted", "g2_later", "g1", "dt_hist")


def batch_of(*frames, n_frames=None):
    """FrameBatch from (frame id, pixels, tdc codes) triples, kept in order.

    The batch starts at frame 0 and covers n_frames frames, by default up
    to the last id given.
    """
    fids, pixels, tdc = ([np.empty(0, dt)]
                         for dt in (np.int64, np.uint16, np.uint8))
    for fid, pix, t in frames:
        fids.append(np.full(len(pix), fid, dtype=np.int64))
        pixels.append(np.asarray(pix, np.uint16))
        tdc.append(np.asarray(t, np.uint8))
    if n_frames is None:
        n_frames = frames[-1][0] + 1 if frames else 0
    return FrameBatch(0, n_frames, *(np.concatenate(c)
                                     for c in (fids, pixels, tdc)))


def write_event_file(path, batches, total_frames=None, **header):
    """Write one FrameBatch or a list of them through one EventFileWriter.

    header holds the writer's keyword arguments (geometry, mapping mode).
    Returns the number of bytes written.
    """
    writer = EventFileWriter(path, **header)
    for batch in [batches] if isinstance(batches, FrameBatch) else batches:
        writer.add_batch(batch)
    writer.close(total_frames)
    return writer.bytes_written


def random_batch(rng, n_frames, n_pix, bins, max_events=8, p_empty=0.2):
    """Random valid FrameBatch over frames [0, n_frames).

    Each frame is empty with probability p_empty and otherwise holds 1 to
    max_events distinct pixels in ascending order with random tdc codes.
    """
    frames = []
    for fid in range(n_frames):
        if rng.random() < p_empty:
            continue
        k = int(rng.integers(1, max_events + 1))
        k = min(k, n_pix)
        pix = np.sort(rng.choice(np.arange(1, n_pix + 1), size=k,
                                 replace=False))
        frames.append((fid, pix, rng.integers(0, bins, k)))
    return batch_of(*frames, n_frames=n_frames)


def stream_digests(seed, n_frames=PINNED_FRAMES,
                   streams=("far", "near", "characterization"), extra=None):
    """{stream: {field: first 16 hex digits of its sha256}} at one seed.

    The streams are any of the default.cfg far arm, near arm and 30 kHz
    cross-talk characterization sensor (zero pairs, far mapping),
    cross-talk on, n_frames frames each, all simulated on seed; extra
    settings, if given, are set over default.cfg's. The fields
    are each FrameBatch event column over the whole stream and the five
    arrays of the stream's accumulator at the default.cfg window and shift.
    """
    def digest(arrays):
        h = hashlib.sha256()
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        return h.hexdigest()[:16]

    settings = load_config(REFERENCE_CFG) | (extra or {})
    settings["run.seed"] = seed
    model = build_model(settings)
    sensor = build_sensor(settings)
    dark = settings["correct.characterization_dark_hz"]
    out = {}
    for name, mode, cfg, pairs in (
            ("far", "far", sensor, settings["run.pairs_per_frame_far"]),
            ("near", "near", sensor, settings["run.pairs_per_frame_near"]),
            ("characterization", "far",
             dataclasses.replace(sensor, dark_rate_hz=dark), 0.0)):
        if name not in streams:
            continue
        batches = list(simulate_frames(
            model, build_mapping(settings, mode), cfg, n_frames, pairs,
            crosstalk=build_crosstalk(settings), seed=seed))
        acc = accumulate(batches, window=10, shift=20, mapping_mode=mode)
        out[name] = {f: digest(getattr(b, f) for b in batches)
                     for f in ("frame_ids", "pixels", "tdc")}
        out[name].update({f: digest([getattr(acc, f)]) for f in ACC_FIELDS})
    return out


def coordinate_widths(model):
    """(sigma+, sigma-) of the rotated coordinates per axis, by field.

    Far field: the model's momentum widths sigma_q+- in 1/mm. Near field:
    pure-state Fourier duality pairs each position coordinate with its
    momentum partner, sigma_x+- = 1/(2 sigma_q+-), in um.
    """
    far = ((model.sigma_q_plus_x, model.sigma_q_minus_x),
           (model.sigma_q_plus_y, model.sigma_q_minus_y))
    near = tuple((1e3 / (2.0 * sp), 1e3 / (2.0 * sm)) for sp, sm in far)
    return {"near": near, "far": far}


def predicted_widths(model):
    """Minimum inferred widths of a double Gaussian, keyed as the EPR report.

    delta^2(a|b) = 2 s+^2 s-^2 / (s+^2 + s-^2) in each field, written out
    here apart from epr.inferred_variance_from_widths.
    """
    def delta(sp, sm):
        return math.sqrt(2.0 * sp * sp * sm * sm / (sp * sp + sm * sm))

    w = coordinate_widths(model)
    return {"delta_x_um": delta(*w["near"][0]),
            "delta_qx_per_mm": delta(*w["far"][0]),
            "delta_y_um": delta(*w["near"][1]),
            "delta_qy_per_mm": delta(*w["far"][1])}


def frame_groups(batch):
    """(frame id, pixels, tdc codes) of each frame a sorted batch stores."""
    ids, starts = np.unique(batch.frame_ids, return_index=True)
    ends = np.append(starts[1:], batch.n_events)
    return [(int(fid), batch.pixels[a:b], batch.tdc[a:b])
            for fid, a, b in zip(ids, starts, ends)]


def pair_key(lower, higher, dt, n_pix, reach):
    """The accumulator's key of a pixel pair, 0-based lower pixel first,
    with dt = t(lower) - t(higher), written out apart from add_batch."""
    return (lower * n_pix + higher) * (2 * reach + 1) + dt + reach


def quadratic_accumulate(batch, n_x, n_y, bins, window, shift):
    """Reference accumulator from plain nested loops over event pairs.

    Returns the dense tensors g2, g2_shifted and g2_later, g1, dt_hist and
    n_frames, counted cell by cell, and the pair list (pair_keys,
    pair_counts) of the pairs with |dt| <= shift + window, counted key by
    key.
    """
    n_pix = n_x * n_y
    ref = SimpleNamespace(
        n_frames=batch.n_frames, g1=np.zeros(n_pix, dtype=np.int64),
        dt_hist=np.zeros(2 * bins - 1, dtype=np.int64),
        **{name: np.zeros((n_pix, n_pix), dtype=np.int64)
           for name in ("g2", "g2_shifted", "g2_later")})
    pairs = collections.Counter()
    half = bins - 1
    for _, pixels, tdc in frame_groups(batch):
        events = list(zip(pixels.tolist(), tdc.tolist()))
        for p, _ in events:
            ref.g1[p - 1] += 1
        for i, (p1, t1) in enumerate(events):
            for j, (p2, t2) in enumerate(events):
                if i == j:
                    continue
                dt = t1 - t2
                ref.dt_hist[dt + half] += 1
                if p1 < p2 and abs(dt) <= shift + window:
                    pairs[pair_key(p1 - 1, p2 - 1, dt, n_pix,
                                   shift + window)] += 1
                if abs(dt) <= window:
                    ref.g2[p1 - 1, p2 - 1] += 1
                    if t2 > t1:
                        ref.g2_later[p1 - 1, p2 - 1] += 1
                if abs(abs(dt) - shift) <= window:
                    ref.g2_shifted[p1 - 1, p2 - 1] += 1
    ref.pair_keys = np.array(sorted(pairs), dtype=np.int64)
    ref.pair_counts = np.array([pairs[k] for k in sorted(pairs)],
                               dtype=np.int64)
    return ref


def pair_list_accumulator(p1, p2, dt, counts, *, n_x=32, n_y=32, window=10,
                          shift=20, bins=255, g1=None, **fields):
    """An accumulator holding counts[k] pairs of the 0-based pixels p1[k]
    and p2[k] with t(p1) - t(p2) = dt[k] (the arguments broadcast).

    Both orders of a pair name one key, so their counts add; zero counts
    are left out. g1 defaults to no singles.
    """
    p1, p2, dt, counts = (a.ravel() for a in np.broadcast_arrays(
        *(np.asarray(a, dtype=np.int64) for a in (p1, p2, dt, counts))))
    assert not np.any(p1 == p2) and np.all(np.abs(dt) <= shift + window)
    swap = p1 > p2
    keys = pair_key(np.where(swap, p2, p1), np.where(swap, p1, p2),
                    np.where(swap, -dt, dt), n_x * n_y, shift + window)
    keys, inverse = np.unique(keys[counts > 0], return_inverse=True)
    sums = np.zeros(keys.size, dtype=np.int64)
    np.add.at(sums, inverse, counts[counts > 0])
    acc = CorrelationAccumulator(
        n_x=n_x, n_y=n_y, bins_per_frame=bins, window=window, shift=shift,
        pair_keys=keys, pair_counts=sums, **fields)
    if g1 is not None:
        acc.g1[:] = g1
    return acc


def symmetric_accumulator(g2, g2_later=None, **kwargs):
    """An accumulator whose g2 and g2_later are the given tensors.

    g2 must be symmetric with a zero diagonal. For each pair a < b the pair
    list holds g2_later[a, b] pairs with dt = -1 (b fired later),
    g2_later[b, a] with dt = +1 and the rest of g2[a, b] at dt = 0.
    """
    g2 = np.asarray(g2)
    later = np.zeros_like(g2) if g2_later is None else np.asarray(g2_later)
    assert np.array_equal(g2, g2.T) and not np.any(np.diagonal(g2))
    a, b = np.triu_indices(g2.shape[0], 1)
    tie = g2[a, b] - later[a, b] - later[b, a]
    assert np.all(tie >= 0)
    return pair_list_accumulator(
        np.tile(a, 3), np.tile(b, 3), np.repeat([-1, 1, 0], a.size),
        np.concatenate((later[a, b], later[b, a], tie)), **kwargs)


def quadruple_loop_projections(values, n_x, n_y):
    """Axis and sum/diff projections via explicit quadruple loops."""
    t = np.asarray(values).reshape(n_y, n_x, n_y, n_x)
    g2x = np.zeros((n_x, n_x))
    g2y = np.zeros((n_y, n_y))
    sum_map = np.zeros((2 * n_x - 1, 2 * n_y - 1))
    diff_map = np.zeros((2 * n_x - 1, 2 * n_y - 1))
    for y1 in range(n_y):
        for x1 in range(n_x):
            for y2 in range(n_y):
                for x2 in range(n_x):
                    v = t[y1, x1, y2, x2]
                    g2x[x1, x2] += v
                    g2y[y1, y2] += v
                    sum_map[x1 + x2, y1 + y2] += v
                    diff_map[x1 - x2 + n_x - 1, y1 - y2 + n_y - 1] += v
    return g2x, g2y, sum_map, diff_map


def oracle_locus_distance(n_x, n_y, mapping_mode):
    """Reference pair distance from the correlated locus, as (n_pix, n_pix).

    The construction the library used before it broadcast per-axis tables:
    int64 pixel coordinates and full (n_pix, n_pix) difference temporaries.
    """
    x = np.arange(n_x)
    y = np.arange(n_y)
    xi, yi = np.meshgrid(x, y, indexing="xy")
    px = xi.ravel()
    py = yi.ravel()
    ddiag = np.maximum(np.abs(px[:, None] - px[None, :]),
                       np.abs(py[:, None] - py[None, :]))
    if mapping_mode != "far":
        return ddiag
    mx = (n_x - 1) - px
    my = (n_y - 1) - py
    dmirr = np.maximum(np.abs(px[:, None] - mx[None, :]),
                       np.abs(py[:, None] - my[None, :]))
    return np.minimum(ddiag, dmirr)


def neighbor_mask_pairs(n_x, n_y, radius):
    """Reference neighbour mask: boolean (n_pix, n_pix) of distinct pixel
    pairs within Chebyshev radius, from the full-pair distance table."""
    dist = oracle_locus_distance(n_x, n_y, "unspecified")
    return (dist <= radius) & (dist > 0)


def oracle_offset_lookup(cmap, n_x, n_y):
    """Reference XT[l1, l2] = p(pixel(l2) - pixel(l1)), as (n_pix, n_pix).

    The construction the library used before it gathered through per-axis
    offset tables: int64 (n_pix, n_pix) offset temporaries and a boolean
    index.
    """
    x = np.arange(n_x)
    y = np.arange(n_y)
    xi, yi = np.meshgrid(x, y, indexing="xy")
    px = xi.ravel()
    py = yi.ravel()
    dx = px[None, :] - px[:, None]
    dy = py[None, :] - py[:, None]
    r = cmap.radius
    inside = (np.abs(dx) <= r) & (np.abs(dy) <= r)
    out = np.zeros((n_x * n_y, n_x * n_y))
    out[inside] = cmap.probabilities[dx[inside] + r, dy[inside] + r]
    return out


def oracle_estimate_crosstalk(corr, inner_window=29):
    """Reference cross-talk estimator: one fancy-indexed sum per offset.

    The loop over all (2r + 1)^2 offsets the library ran before it keyed
    weighted bincounts on the pair offset.
    """
    assert corr.flags == ("raw", "accidental_subtracted"), corr.flags
    n_x, n_y = corr.n_x, corr.n_y
    if inner_window < 1 or inner_window > min(n_x, n_y):
        raise WindowTooLarge("inner window does not fit on the sensor")
    radius = inner_window - 1
    lo_x = (n_x - inner_window) // 2
    lo_y = (n_y - inner_window) // 2
    vals = corr.values.reshape(n_y, n_x, n_y, n_x)
    later = corr.values_later.reshape(n_y, n_x, n_y, n_x)
    g1 = corr.g1.reshape(n_y, n_x)
    ys = np.arange(lo_y, lo_y + inner_window)
    xs = np.arange(lo_x, lo_x + inner_window)
    norm = float(np.sum(g1[np.ix_(ys, xs)]))
    if norm <= 0:
        raise EmptyAccumulator("inner window saw no singles")
    prob = np.zeros((2 * radius + 1, 2 * radius + 1))
    clamped = 0
    for dx in range(-radius, radius + 1):
        tx = xs + dx
        okx = (tx >= 0) & (tx < n_x)
        for dy in range(-radius, radius + 1):
            if dx == 0 and dy == 0:
                continue
            ty = ys + dy
            oky = (ty >= 0) & (ty < n_y)
            if not (np.any(okx) and np.any(oky)):
                continue
            sy = ys[oky][:, None]
            sx = xs[okx][None, :]
            tyk = ty[oky][:, None]
            txk = tx[okx][None, :]
            total = float(np.sum(vals[sy, sx, tyk, txk]))
            fwd = max(float(np.sum(later[sy, sx, tyk, txk])), 0.0)
            rev = max(float(np.sum(later[tyk, txk, sy, sx])), 0.0)
            share = fwd / (fwd + rev) if fwd + rev > 0 else 0.5
            p = share * total / norm
            if p < 0:
                clamped += 1
                p = 0.0
            prob[dx + radius, dy + radius] = p
    return CrosstalkMap(probabilities=prob, radius=radius,
                        clamped_negative=clamped)


def keyed_estimate_crosstalk(acc, method, inner_window=29):
    """The library's estimator in its order of float operations, from
    dense tensors: per offset, the integer sums of g2, of g2_later in both
    orders and of g2_shifted as offset-keyed bincounts over the inner
    source block, each then scaled as the library scales it, or the
    g1_product estimate's rates summed in the library's cell order.
    Integer sums below 2**53 are exact in float64 in any order, so the
    maps match the library's bit for bit; oracle_estimate_crosstalk checks
    the arithmetic.
    """
    n_x, n_y = acc.n_x, acc.n_y
    if inner_window < 1 or inner_window > min(n_x, n_y):
        raise WindowTooLarge("inner window does not fit on the sensor")
    scale = MFRAMES / acc.n_frames
    radius = inner_window - 1
    grid = 2 * radius + 2
    xs = np.arange((n_x - inner_window) // 2, (n_x + inner_window) // 2)
    ys = np.arange((n_y - inner_window) // 2, (n_y + inner_window) // 2)
    norm = float(np.sum((acc.g1 * scale).reshape(n_y, n_x)[np.ix_(ys, xs)]))
    if norm <= 0:
        raise EmptyAccumulator("inner window saw no singles")
    kx, ky = _over_pairs(_offset_index(_axis_offsets(n_x, xs), radius),
                         _offset_index(_axis_offsets(n_y, ys), radius))
    key = (kx * grid + ky).ravel()
    block = np.s_[ys[0]:ys[-1] + 1, xs[0]:xs[-1] + 1]

    def offset_sums(tensor):
        rows = np.asarray(tensor, float).reshape(n_y, n_x, n_y, n_x)[block]
        return np.bincount(key, rows.ravel(), grid * grid).reshape(
            grid, grid)[:-1, :-1]

    b, w, sh = acc.bins_per_frame, acc.window, acc.shift
    if method == "shifted_window":
        ratio = _window_mass(b, -w, w) / (_window_mass(b, sh - w, sh + w)
                                          + _window_mass(b, -sh - w, -sh + w))
        accidental = offset_sums(acc.g2_shifted) * (ratio * scale)
    else:
        accidental = offset_sums(oracle_estimate_accidentals(acc, method))
    ordered = _window_mass(b, 1, w) / _window_mass(b, -w, w)
    total = offset_sums(acc.g2) * scale - accidental
    fwd, rev = np.maximum(
        [offset_sums(later) * scale - accidental * ordered
         for later in (acc.g2_later, acc.g2_later.T)], 0.0)
    share = np.divide(fwd, fwd + rev, out=np.full_like(fwd, 0.5),
                      where=fwd + rev > 0)
    prob = share * total / norm
    negative = prob < 0
    prob[negative] = 0.0
    return CrosstalkMap(probabilities=prob, radius=radius,
                        clamped_negative=int(np.count_nonzero(negative)))


def oracle_normalize(acc):
    """Rates per 1e6 frames as the chain built them with the ordered share:
    float copies of g2, g2_later and g1, each then scaled."""
    scale = MFRAMES / acc.n_frames
    return SimpleNamespace(
        values=acc.g2.astype(np.float64) * scale,
        values_later=acc.g2_later.astype(np.float64) * scale,
        g1=acc.g1.astype(np.float64) * scale, flags=("raw",),
        n_x=acc.n_x, n_y=acc.n_y, bins_per_frame=acc.bins_per_frame,
        window=acc.window)


def oracle_subtract_accidentals(corr, estimate):
    """Accidental subtraction with the ordered share: values_later loses
    the estimate's fraction of strictly-ordered bin pairs, pos / both."""
    bins, window = corr.bins_per_frame, corr.window
    pos = sum(bins - d for d in range(1, window + 1))
    both = bins + 2 * pos
    return SimpleNamespace(**dict(
        vars(corr), values=corr.values - estimate,
        values_later=corr.values_later - estimate * (pos / both),
        flags=corr.flags + ("accidental_subtracted",)))


def oracle_estimate_accidentals(acc, method):
    """Accidental estimate as the chain built it: whole float copies of
    the tensors, and the full-pair locus distance for g1_product. The
    mask limits are read from correlator when called, as
    estimate_accidentals reads them."""
    scale = MFRAMES / acc.n_frames
    if method == "shifted_window":
        b, w, sh = acc.bins_per_frame, acc.window, acc.shift
        displaced = (_window_mass(b, sh - w, sh + w)
                     + _window_mass(b, -sh - w, -sh + w))
        est = acc.g2_shifted.astype(np.float64)
        est *= (_window_mass(b, -w, w) / displaced) * scale
        return est
    sel = oracle_locus_distance(acc.n_x, acc.n_y,
                                acc.mapping_mode) >= correlator.MASK_DISTANCE
    if int(np.count_nonzero(sel)) < correlator.MIN_MASK_PAIRS:
        raise InsufficientMask("too few uncorrelated pairs")
    outer = acc.g1.astype(np.float64)[:, None] * acc.g1[None, :]
    g2 = acc.g2.astype(np.float64)
    denom = float(np.sum(outer[sel] ** 2))
    if denom <= 0:
        if np.any(g2[sel]):
            raise InsufficientMask("mask region has no singles")
        return np.zeros_like(g2)
    c = float(np.sum(g2[sel] * outer[sel])) / denom
    est = c * outer
    np.fill_diagonal(est, 0.0)
    return est * scale


def oracle_correct_chain(acc, *, accidental_method="shifted_window",
                         crosstalk_map=None, estimate_map=False,
                         mask_radius=1, inner_window=29):
    """The whole-tensor correction chain the library ran while it kept the
    ordered share: returns (values, masked, map used)."""
    corr = oracle_subtract_accidentals(
        oracle_normalize(acc),
        oracle_estimate_accidentals(acc, accidental_method))
    cmap = (keyed_estimate_crosstalk(acc, accidental_method, inner_window)
            if estimate_map else crosstalk_map)
    values = corr.values
    if cmap is not None:
        # the echo of each pair and its transpose, added in that order
        echo = oracle_offset_lookup(cmap, acc.n_x, acc.n_y) * corr.g1[:, None]
        values = values - (echo + echo.T)
    masked = np.zeros(values.shape, dtype=bool)
    if mask_radius is not None:
        masked = neighbor_mask_pairs(acc.n_x, acc.n_y, mask_radius)
        values = np.where(masked, 0.0, values)
    return values, masked, cmap


def save_older_corrected(corr, path, **older):
    """Write corr as CorrectedG2.save did while the class stored its mask:
    the same meta, and masked stored after values and g1. older adds the
    arrays such a container held besides (values_later, while the class
    kept the ordered share) or replaces masked."""
    corr.save(path)
    arrays, meta = arraystore.load_arrays(path)
    arraystore.save_arrays(
        path, {**arrays, "masked": corr.masked, **older}, meta)


def save_dense_accumulator(acc, path):
    """Write acc as CorrelationAccumulator.save did before it stored its
    pair tensors as nonzero cells: the same meta, every array dense."""
    acc.save(path)
    _, meta = arraystore.load_arrays(path)
    arraystore.save_arrays(path, {"g2": acc.g2, "g2_shifted": acc.g2_shifted,
                                  "g2_later": acc.g2_later, "g1": acc.g1,
                                  "dt_hist": acc.dt_hist}, meta)


def save_cell_accumulator(acc, path):
    """Write acc as CorrelationAccumulator.save did while it stored each
    pair tensor as its nonzero cells: g2_keys and g2_counts (the sorted flat
    cells and their counts), the same for g2_shifted and g2_later, then g1
    and dt_hist, with the same meta."""
    acc.save(path)
    _, meta = arraystore.load_arrays(path)
    cells = {}
    for name in ("g2", "g2_shifted", "g2_later"):
        flat = getattr(acc, name).reshape(-1)
        keys = np.flatnonzero(flat)
        cells[f"{name}_keys"], cells[f"{name}_counts"] = keys, flat[keys]
    arraystore.save_arrays(
        path, {**cells, "g1": acc.g1, "dt_hist": acc.dt_hist}, meta)


def sum_diff_route_profiles(values, n_x, n_y, axis):
    """Sum and difference peak profiles through the full sum/diff maps.

    The route inferred_variance_peaks took before it read the profiles off
    the axis projection: project the whole tensor, then sum each map over
    the other axis.
    """
    sum_map, diff_map = project_sum_diff(values, n_x, n_y)
    other = 1 if axis == "x" else 0
    return sum_map.sum(axis=other), diff_map.sum(axis=other)


def _axis_projection(corr, axis):
    return project_axes(corr.values, corr.n_x, corr.n_y)["xy".index(axis)]


def axis_table(corr, mapping, axis, pixel_pitch_um=44.67):
    """The joint table evaluate_epr builds from corr's axis projection."""
    return epr.build_joint_table(_axis_projection(corr, axis), corr, mapping,
                                 pixel_pitch_um, axis)


def _only(estimate):
    # the one variance of an estimator's stack of one, or its error raised
    (d2,), (error,) = estimate
    if error is not None:
        raise error
    return d2


def table_variance(method, table, min_column_fraction=0.01):
    """One table's inferred variance by method, run as a stack of one; a
    failure raises the error the estimator returned."""
    if method == "gauss2d":
        return _only(epr.inferred_variance_gauss2d([table]))
    estimate = getattr(epr, f"inferred_variance_{method}")
    return _only(estimate([table], [epr.conditionals_and_marginal(
        table, min_column_fraction)]))


def peak_variance(corr, mapping, axis, pixel_pitch_um=44.67):
    """inferred_variance_peaks of corr's axis profile, a stack of one; a
    failure raises the error the estimator returned."""
    profile = epr._peak_profile(_axis_projection(corr, axis), corr, mapping,
                                pixel_pitch_um, axis)
    return _only(epr.inferred_variance_peaks([profile]))


def oracle_iter_frames(path):
    """Reference event-file decoder: one Python iteration per stored frame.

    Yields (frame id, pixels, tdc codes) per stored frame. Validates each
    frame in the format's check order and raises at the first faulty one,
    after yielding the frames before it.
    """
    hdr = read_header(path)
    n_pix = hdr.n_pixels
    with open(path, "rb") as fh:
        fh.seek(0, 2)
        end = fh.tell() - 14
        fh.seek(22)
        last_id = -1
        while fh.tell() < end:
            if fh.tell() + 6 > end:
                raise TruncatedFile("frame header runs into the footer")
            fid, count = struct.unpack("<IH", fh.read(6))
            if fid == 0xFFFFFFFF:
                raise InvariantViolation("sentinel before the footer")
            if fid <= last_id:
                raise OrderViolation(f"frame {fid} after frame {last_id}")
            if fid >= hdr.total_frames:
                raise RangeViolation(
                    f"frame id {fid} beyond declared total "
                    f"{hdr.total_frames}")
            if count == 0:
                raise InvariantViolation("empty frames must be omitted")
            if count > n_pix:
                raise RangeViolation(
                    f"{count} events on {n_pix} single-hit pixels")
            if fh.tell() + 3 * count > end:
                raise TruncatedFile("events run into the footer")
            rec = np.frombuffer(fh.read(3 * count),
                                dtype=[("pixel", "<u2"), ("tdc", "u1")])
            pixels = rec["pixel"].astype(np.int64)
            tdc = rec["tdc"].astype(np.int64)
            if pixels[0] < 1 or pixels[-1] > n_pix:
                raise RangeViolation("pixel index outside the array")
            if np.any(np.diff(pixels) <= 0):
                raise InvariantViolation(
                    f"frame {fid}: duplicate or unsorted pixel")
            if np.any(tdc >= hdr.bins_per_frame):
                raise RangeViolation("tdc code outside the frame")
            last_id = fid
            yield fid, pixels.astype(np.uint16), tdc.astype(np.uint8)


def oracle_read_batches(path, frames_per_batch=65536):
    """Reference batching of oracle_iter_frames into spans tiling the file."""
    total = read_header(path).total_frames
    span = 0
    frames = []

    def flush(span):
        n = min(frames_per_batch, total - span * frames_per_batch)
        batch = dataclasses.replace(batch_of(*frames, n_frames=n),
                                    start_frame=span * frames_per_batch)
        frames.clear()
        return batch

    for frame in oracle_iter_frames(path):
        while frame[0] >= (span + 1) * frames_per_batch:
            yield flush(span)
            span += 1
        frames.append(frame)
    while span * frames_per_batch < total:
        yield flush(span)
        span += 1


def sequential_head_walk(buf):
    """Frame starts in a block of 3-byte units, stepped head by head.

    Returns the units where frames start, walking from unit 0 while a
    6-byte head fits (``u += 2 + count``), and the unit after the last.
    """
    starts, u = [], 0
    while 3 * u + 6 <= len(buf):
        starts.append(u)
        u += 2 + struct.unpack_from("<H", buf, 3 * u + 4)[0]
    return starts, u


def decode_outcome(make_batches):
    """(digests of the concatenated event columns, frames tiled, error).

    Asserts that the batches tile [0, frames tiled) in order, each covering
    at least one frame, holding FrameBatch's column dtypes and only ids
    inside its own span. Where a decoder cuts the stream into batches is not
    part of the outcome. The error is (class, message), or None when the
    stream ran to the end. ``make_batches`` is called inside the guard, so
    an error raised while opening the file counts too. Decoders may yield
    different events before the same error, so an error's outcome is the
    error alone.
    """
    digests = [hashlib.sha256() for _ in range(3)]
    end = 0
    try:
        for b in make_batches():
            assert b.start_frame == end and b.n_frames > 0
            end += b.n_frames
            cols = (b.frame_ids, b.pixels, b.tdc)
            assert [c.dtype for c in cols] == [np.int64, np.uint16, np.uint8]
            assert np.all((b.frame_ids >= b.start_frame)
                          & (b.frame_ids < end))
            for digest, c in zip(digests, cols):
                digest.update(np.ascontiguousarray(c).tobytes())
    except SpadError as exc:
        return None, None, (type(exc), str(exc))
    return tuple(d.hexdigest() for d in digests), end, None


def oracle_damped_least_squares(fun, jac, p0) -> LMResult:
    """Reference Levenberg-Marquardt loop for one problem at a time.

    This is the unstacked solver the stacked one replaced: one damped try
    after another, np.linalg.solve with an lstsq fallback, then the same
    undamped final steps on a converged problem. The result's fields hold
    that one problem's values.
    """
    p = np.asarray(p0, dtype=float).copy()
    r = np.asarray(fun(p), dtype=float)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    it = 0
    for it in range(1, MAX_ITERATIONS + 1):
        jmat = np.asarray(jac(p), dtype=float)
        grad = jmat.T @ r
        hess = jmat.T @ jmat
        diag = np.diag(hess).copy()
        floor = 1e-12 * max(diag.max(), 1.0)
        diag[diag < floor] = floor
        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(hess + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                step = np.linalg.lstsq(hess + lam * np.diag(diag), -grad,
                                       rcond=None)[0]
            p_new = p + step
            r_new = np.asarray(fun(p_new), dtype=float)
            cost_new = float(r_new @ r_new)
            if math.isfinite(cost_new) and cost_new <= cost:
                rel = np.linalg.norm(step) / (np.linalg.norm(p) + 1e-300)
                p, r, cost = p_new, r_new, cost_new
                lam = max(lam / 3.0, 1e-12)
                accepted = True
                if rel < REL_STEP_TOL:
                    converged = True
                break
            lam *= 10.0
            if lam > 1e14:
                break
        if converged or not accepted:
            break

    for _ in range(FINAL_STEPS if converged else 0):
        jmat = np.asarray(jac(p), dtype=float)
        try:
            step = np.linalg.solve(jmat.T @ jmat, -jmat.T @ r)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jmat.T @ jmat, -jmat.T @ r, rcond=None)[0]
        if not np.linalg.norm(step) / (np.linalg.norm(p) + 1e-300) \
                < FINAL_STEP_TOL:
            break
        p = p + step
        r = np.asarray(fun(p), dtype=float)

    return LMResult(params=p, converged=converged, iterations=it)


def oracle_moment_init_1d(x, y):
    """Reference 1-D start point: moments of one row's kept points."""
    base = float(np.min(y))
    amp = float(np.max(y) - base)
    w = np.clip(y - base, 0.0, None)
    tot = w.sum()
    if tot <= 0 or amp <= 0:
        return np.array([max(amp, 1.0), float(np.mean(x)),
                         (x.max() - x.min()) / 4.0 or 1.0, base])
    mu = float((w * x).sum() / tot)
    var = float((w * (x - mu) ** 2).sum() / tot)
    sigma = math.sqrt(var) if var > 0 else (x.max() - x.min()) / 4.0
    if sigma <= 0:
        sigma = 1.0
    return np.array([amp, mu, sigma, base])


def oracle_moment_init_2d(a, b, v):
    """Reference 2-D start point: moments of one row's kept cells."""
    base = float(np.percentile(v, 5.0))
    w = np.clip(v - base, 0.0, None)
    tot = w.sum()
    amp = float(v.max() - base)
    if tot <= 0 or amp <= 0:
        span = max(np.ptp(a), np.ptp(b), 1.0)
        return np.array([max(amp, 1.0), a.mean(), b.mean(),
                         span / 4, span / 4, base])
    ca = float((w * a).sum() / tot)
    cb = float((w * b).sum() / tot)
    va = float((w * (a - ca) ** 2).sum() / tot)
    vb = float((w * (b - cb) ** 2).sum() / tot)
    cab = float((w * (a - ca) * (b - cb)).sum() / tot)
    vp = max((va + vb) / 2 + cab, 1e-6)
    vm = max((va + vb) / 2 - cab, 1e-6)
    return np.array([amp, ca, cb, math.sqrt(vp), math.sqrt(vm), base])


def chi2_critical(dof, alpha):
    """Upper alpha point of the chi-square law with dof degrees of freedom.

    Wilson-Hilferty cube-root normal approximation; at alpha = 1e-3 it is
    at most 3.1 % above the exact point for every dof >= 1.
    """
    z = statistics.NormalDist().inv_cdf(1.0 - alpha)
    c = 2.0 / (9.0 * dof)
    return dof * (1.0 - c + z * math.sqrt(c)) ** 3


def fold_sparse(expected, *observed, min_expected=5.0):
    """Fold the categories expecting fewer than min_expected into one.

    The fold goes into the last well-filled category when it expects too
    little itself. Returns expected and each observed histogram, folded.
    """
    expected = np.asarray(expected, dtype=float)
    big = expected >= min_expected
    out = []
    for h in (expected,) + observed:
        h = np.asarray(h, dtype=float)
        folded = h[big]
        if expected[~big].sum() >= min_expected:
            folded = np.append(folded, h[~big].sum())
        else:
            folded[-1] += h[~big].sum()
        out.append(folded)
    return out


def goodness_of_fit(counts, pmf, alpha):
    """(chi-square statistic, critical point) of counts against a law.

    counts holds one draw per trial; pmf(k) is the law's probability of k
    for an array of k, which must cover its mass up to counts.max() + 50.
    """
    counts = np.asarray(counts)
    k = np.arange(counts.max() + 50)
    expected = counts.size * pmf(k)
    expected[-1] += counts.size - expected.sum()    # the mass past k
    exp, obs = fold_sparse(expected, np.bincount(counts, minlength=k.size))
    return float(np.sum((obs - exp) ** 2 / exp)), chi2_critical(exp.size - 1,
                                                                alpha)


def two_sample_chi2(a, b, alpha):
    """(chi-square statistic, critical point) for two count samples of one law.

    a and b hold one count per trial. Categories whose pooled expectation
    falls below 5 in either sample are folded together.
    """
    size = int(max(np.max(a), np.max(b))) + 1
    ha, hb = (np.bincount(x, minlength=size).astype(float) for x in (a, b))
    pooled = (ha + hb) / (ha.sum() + hb.sum())
    least = min(ha.sum(), hb.sum()) * pooled
    _, ha, hb = fold_sparse(least, ha, hb)
    stat = 0.0
    for h in (ha, hb):
        e = h.sum() * (ha + hb) / (ha.sum() + hb.sum())
        stat += float(np.sum((h - e) ** 2 / e))
    return stat, chi2_critical(ha.size - 1, alpha)


def oracle_blk_bytes(arrays, meta):
    """Reference .blk container bytes, packed field by field with struct.

    Every payload element goes through struct in C order, little-endian,
    so no numpy buffer is involved. A 0-d array is stored with ndim 0.
    """
    formats = {"<i8": (0, "q"), "<f8": (1, "d"), "|u1": (2, "B"),
               "|b1": (3, "?"), "<u4": (4, "I"), "<u2": (5, "H")}
    out = [b"SPADBLK1", struct.pack("<H", len(arrays))]
    for name, arr in arrays.items():
        arr = np.asarray(arr)
        code, fmt = formats[arr.dtype.newbyteorder("<").str]
        nb = name.encode("utf-8")
        out.append(struct.pack("<H", len(nb)) + nb)
        out.append(struct.pack("<BB", code, arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(struct.pack(f"<{arr.size}{fmt}",
                               *arr.ravel(order="C").tolist()))
    mb = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    return b"".join(out) + struct.pack("<I", len(mb)) + mb
