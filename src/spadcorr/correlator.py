"""Frame-wise coincidence accumulation and correction of pixel-pair tensors.

Pixels are addressed by the linear index l = px + n_x*(py - 1) with px, py
starting at 1, so l runs from 1 to n_x*n_y. The accumulator stores one pair
list keyed by (pixel pair, dt), from batches FrameBatch.checked_columns
accepts (else exit 3); each stage derives the (n_pix, n_pix) tensors
g2[l1-1, l2-1] it reads, both orders counted, with a zero diagonal.

The correction chain is recorded in provenance flags on CorrectedG2 and must
advance in one direction only:

    raw -> accidental_subtracted -> crosstalk_corrected -> neighbor_masked

The cross-talk stage may be skipped; every stage after raw needs
accidental_subtracted first, and none repeats. CorrectedG2.__post_init__ is
the one check, so a stage applied out of order raises InvariantViolation
(exit 3) and leaves its input unchanged. The cross-talk map is estimated
beside the chain, from the accumulator and its accidental estimate
(estimate_crosstalk), not from a corrected tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import arraystore
from .errors import (
    ConfigError,
    DisjointnessViolation,
    EmptyAccumulator,
    InsufficientMask,
    InvariantViolation,
    MalformedFrame,
    OutOfRange,
    WindowTooLarge,
)
from .optics import MAPPING_MODES
from .sensor import MAX_PIXELS, FrameBatch

FLAG_ORDER = ("raw", "accidental_subtracted", "crosstalk_corrected",
              "neighbor_masked")
# meta fields shared by the accumulator and corrected-tensor containers
_TENSOR_META = dict(n_x=int, n_y=int, bins_per_frame=int, window=int,
                    shift=int, n_frames=int, mapping_mode=str)

MFRAMES = 1.0e6
# g1_product fits its constant on pixel pairs at least MASK_DISTANCE pixels
# from every correlated locus, and needs MIN_MASK_PAIRS of them
MASK_DISTANCE = 10
MIN_MASK_PAIRS = 100


def _in_range(fields: dict) -> dict:
    # Rejects type-checked meta values that no saver writes.
    bad = [name for name in ("n_frames", "mask_radius", "clamped_negative")
           if (fields.get(name) or 0) < 0]
    if fields.get("mapping_mode", "far") not in MAPPING_MODES:
        bad.append("mapping_mode")
    # the grid of a sensor: a larger one's tensors would not fit in memory
    n_x, n_y = fields.get("n_x", 1), fields.get("n_y", 1)
    if not (n_x >= 1 and n_y >= 1 and n_x * n_y <= MAX_PIXELS):
        bad += ["n_x", "n_y"]
    if bad:
        raise InvariantViolation(f"meta fields {bad} out of range")
    return fields


def linear_to_pixel(lin, n_x=32, n_y=32):
    lin = np.asarray(lin)
    if np.any(lin < 1) or np.any(lin > n_x * n_y):
        raise OutOfRange("linear index outside the array")
    px = (lin - 1) % n_x + 1
    py = (lin - 1) // n_x + 1
    if lin.ndim == 0:
        return int(px), int(py)
    return px, py


def _window_mass(bins_per_frame, lo, hi):
    # Number of ordered same-frame bin pairs whose difference d falls in
    # [lo, hi]: uniform arrivals make the difference triangular with weight
    # (B - |d|) per d.
    d = np.arange(lo, hi + 1)
    w = bins_per_frame - np.abs(d)
    return int(np.sum(np.where(w > 0, w, 0)))


class CorrelationAccumulator:
    """Raw counts of one correlation pass: a pair list keyed by (pixel
    pair, dt), singles g1, and dt_hist over every same-frame pair.

    A key packs two 0-based pixels, lower first, and dt = t(lower) -
    t(higher) as (lower * n_pix + higher) * (2 * reach + 1) + dt + reach;
    reach = shift + window bounds the |dt| kept. pair_keys holds the
    distinct keys in increasing order and pair_counts their pairs. A pair
    tensor (see tensor) counts both pixel orders of the keys it selects:
    g2 and g2_shifted the prompt window |dt| <= window and the displaced
    window ||dt| - shift| <= window, and g2_later[l1, l2] the prompt pairs
    where l2 fired strictly after l1. The windows share |dt| = shift -
    window whenever shift <= 2 * window, as at the reference window 10 and
    shift 20, and as the benchmark's pair loop expects.

    The attributes g2, g2_shifted and g2_later are the tensors, derived on
    first read and cached per object for outside readers; no stage reads
    them, so editing one changes no stage's result.
    """

    def __init__(self, n_x, n_y, bins_per_frame, window, shift,
                 mapping_mode="unspecified", n_frames=0, pair_keys=(),
                 pair_counts=(), g1=None, dt_hist=None):
        if n_x * n_y > MAX_PIXELS:
            raise ConfigError(f"{n_x * n_y} pixels exceed {MAX_PIXELS}")
        if window < 0 or window > bins_per_frame - 1:
            raise WindowTooLarge("coincidence window exceeds the frame")
        if shift <= window:
            raise DisjointnessViolation(
                "shifted window overlaps the prompt window")
        if shift - window > bins_per_frame - 1:
            raise WindowTooLarge("shifted window lies beyond the frame")
        self.n_x, self.n_y, self.bins_per_frame = n_x, n_y, bins_per_frame
        self.window, self.shift, self.n_frames = window, shift, n_frames
        self.mapping_mode = mapping_mode
        self._keys = np.asarray(pair_keys, dtype=np.int64)
        self._counts = np.asarray(pair_counts, dtype=np.int64)
        self._pending, self._n_pending = [], 0    # keys of unmerged pairs
        self.g1 = np.zeros(n_x * n_y, dtype=np.int64) if g1 is None else g1
        self.dt_hist = (np.zeros(2 * bins_per_frame - 1, dtype=np.int64)
                        if dt_hist is None else dt_hist)

    n_pixels = property(lambda self: self.n_x * self.n_y)
    pair_keys = property(lambda self: self._merged()[0])
    pair_counts = property(lambda self: self._merged()[1])
    g2 = cached_property(lambda self: self.tensor("g2"))
    g2_shifted = cached_property(lambda self: self.tensor("g2_shifted"))
    g2_later = cached_property(lambda self: self.tensor("g2_later"))

    def add_batch(self, batch: FrameBatch) -> None:
        if not isinstance(batch, FrameBatch):
            raise MalformedFrame(f"cannot accumulate {type(batch).__name__}")
        f, p, t = batch.checked_columns(self.n_pixels, self.bins_per_frame)
        self.n_frames += int(batch.n_frames)
        self.g1 += np.bincount(p - 1, minlength=self.n_pixels)
        reach = self.shift + self.window

        # event i pairs with event i + lag while both lie in one frame, so
        # p[i] < p[i + lag]. The events still paired at lag + 1 are a
        # subset of those at lag, so each lag works on O(events) entries
        # and the loop ends after the largest frame's size.
        # same[k]: events k and k + 1 share a frame
        same = np.append(f[1:] == f[:-1], False)
        i = np.flatnonzero(same)
        lag = 1
        while i.size:
            # x[lag:][i] gathers x[i + lag] without an index temporary
            dt = t[i]
            dt -= t[lag:][i]
            hist = np.bincount(dt + self.bins_per_frame - 1,
                               minlength=self.dt_hist.size)
            self.dt_hist += hist + hist[::-1]
            # the key of each pair with |dt| <= reach; an index array
            # gathers faster than a mixed boolean mask applies
            near = np.flatnonzero(np.abs(dt) <= reach)
            k = i[near]
            key = (p[k] - 1) * self.n_pixels + p[lag:][k] - 1
            key *= 2 * reach + 1
            key += dt[near] + reach
            self._pending.append(key)
            self._n_pending += key.size
            # i keeps a partner at lag + 1 where event i + lag has one at 1
            i = i[same[lag:][i]]
            lag += 1
        for name in ("g2", "g2_shifted", "g2_later"):
            vars(self).pop(name, None)    # derived from fewer pairs
        del f, p, t, same, i    # freed before a merge
        if self._n_pending > self._keys.size:    # pending outgrew the list
            self._merged()

    def _merged(self):
        # The list with the pending keys merged, sorted and summed by run.
        if self._pending:
            keys = np.concatenate(self._pending)
            self._pending, self._n_pending = [], 0
            keys.sort()
            keys, counts = _sum_runs(keys)
            if self._keys.size:
                # a stable sort of two sorted runs is one merge pass
                keys = np.concatenate((self._keys, keys))
                order = np.argsort(keys, kind="stable")
                keys, counts = _sum_runs(keys[order], np.concatenate(
                    (self._counts, counts))[order])
            self._keys, self._counts = keys, counts
        return self._keys, self._counts

    def tensor(self, name, scale=None) -> np.ndarray:
        """A new (n_pix, n_pix) array of the pair tensor g2, g2_shifted or
        g2_later, from the listed and the pending keys: int64 counts, or
        count * scale per cell; counts add in float64, exact below 2**53."""
        reach, n = self.shift + self.window, self.n_pixels
        # the predicates of [lower, higher] and [higher, lower] over dt
        dt = np.arange(-reach, reach + 1)
        win = np.abs(dt) <= self.window
        sw = np.abs(np.abs(dt) - self.shift) <= self.window
        fwd, rev = {"g2": (win, win), "g2_shifted": (sw, sw),
                    "g2_later": (win & (dt < 0), win & (dt > 0))}[name]
        d = np.concatenate([self._keys, *self._pending])
        pair = d // dt.size
        d -= pair * dt.size     # each key's dt + reach
        counts = np.concatenate((self._counts, np.ones(self._n_pending)))
        out = np.zeros(n * n)    # both orders add into it in place
        for table, flip in ((fwd, False), (rev, True)):
            sel = np.flatnonzero(table[d])
            cells = pair[sel]   # lower * n + higher; flipped, higher * n + lower
            np.add.at(out, cells * n - cells // n * (n * n - 1) if flip
                      else cells, counts[sel])
        if scale is None:
            return out.astype(np.int64).reshape(n, n)
        out *= scale
        return out.reshape(n, n)

    def save(self, path) -> None:
        arraystore.save_arrays(
            path, dict(zip(("pair_keys", "pair_counts"), self._merged()),
                       g1=self.g1, dt_hist=self.dt_hist),
            {name: getattr(self, name) for name in _TENSOR_META}
            | {"kind": "accumulator"})

    @classmethod
    def load(cls, path) -> "CorrelationAccumulator":
        return cls._from_arrays(*arraystore.load_arrays(path))

    @classmethod
    def _from_arrays(cls, arrays, meta) -> "CorrelationAccumulator":
        if meta.get("kind") != "accumulator":
            raise ConfigError("container does not hold an accumulator")
        fields = _in_range(arraystore.check_meta(meta, **_TENSOR_META))
        if {"g2", "g2_keys"} & arrays.keys():    # cells without their dt
            raise InvariantViolation("accumulator container from an older "
                                     "spadcorr; re-run `spadcorr correlate`")
        n_pix, n_keys = fields["n_x"] * fields["n_y"], np.size(
            arrays.get("pair_keys"))
        acc = cls(**fields, **arraystore.check_arrays(
            arrays, pair_keys=((n_keys,), np.int64),
            pair_counts=((n_keys,), np.int64), g1=((n_pix,), np.int64),
            dt_hist=((2 * fields["bins_per_frame"] - 1,), np.int64)))
        # the windows are checked; increasing keys are bounded by their ends
        keys, span = acc._keys, 2 * (acc.shift + acc.window) + 1
        lower, higher = np.divmod(keys // span, n_pix)
        if (np.any(acc.g1 < 0) or np.any(acc.dt_hist < 0)
                or np.any(acc._counts <= 0) or np.any(lower >= higher)
                or keys.size and (keys[0] < 0 or np.any(keys[1:] <= keys[:-1])
                                  or keys[-1] >= n_pix * n_pix * span)):
            raise InvariantViolation(
                "a negative single or dt count, or pair keys not strictly "
                "increasing keys of a lower and a higher pixel, counts > 0")
        return acc


def _sum_runs(keys, counts=None):
    # Distinct sorted keys >= 0 and each run's summed counts (default 1s).
    start = np.flatnonzero(np.r_[keys[:1] >= 0, keys[1:] != keys[:-1]])
    sums = (np.ediff1d(start, to_end=keys.size - start[-1:])
            if counts is None else np.add.reduceat(counts, start))
    return keys[start], sums


def accumulate(batches, *, window=10, shift=20, n_x=32, n_y=32,
               bins_per_frame=255, mapping_mode="unspecified"
               ) -> CorrelationAccumulator:
    """Build a CorrelationAccumulator from one FrameBatch or an iterable;
    how the frames are split into batches never changes a count."""
    acc = CorrelationAccumulator(
        n_x=n_x, n_y=n_y, bins_per_frame=bins_per_frame, window=window,
        shift=shift, mapping_mode=mapping_mode)
    for batch in [batches] if isinstance(batches, FrameBatch) else batches:
        acc.add_batch(batch)
    return acc


@dataclass(eq=False)
class CorrectedG2:
    """Pixel-pair rates per 1e6 frames, with correction provenance.

    values holds the corrected rates and g1 the singles rates. flags name
    the stages applied; __post_init__ is the one check of their order, so
    a stage applied out of order fails in the replace() that appends its
    flag. masked, the cells the neighbour mask zeroed, is derived from
    mask_radius when first read and is not stored. load ignores the masked
    and values_later arrays of older containers.
    """

    values: np.ndarray
    g1: np.ndarray
    flags: tuple
    n_x: int
    n_y: int
    bins_per_frame: int
    window: int
    shift: int
    n_frames: int
    mapping_mode: str
    mask_radius: int = None

    def __post_init__(self):
        # the flags name the stages applied: raw, then accidental_subtracted
        # before any later stage, in FLAG_ORDER without repeats, and
        # neighbor_masked iff a radius is set
        flags = tuple(self.flags)
        if flags[:2] not in (FLAG_ORDER[:1], FLAG_ORDER[:2]) or flags != tuple(
                flag for flag in FLAG_ORDER if flag in flags):
            raise InvariantViolation(
                f"correction flags {list(flags)} are not raw, then "
                f"accidental_subtracted before any later stage, in the "
                f"order {list(FLAG_ORDER)}")
        if ("neighbor_masked" in flags) != (self.mask_radius is not None):
            raise InvariantViolation(
                f"correction flags {list(flags)} disagree with mask radius "
                f"{self.mask_radius}")

    n_pixels = property(lambda self: self.n_x * self.n_y)

    @cached_property
    def masked(self) -> np.ndarray:
        """Bool (n_pix, n_pix): the band mask_neighbors zeroes, or none."""
        masked = np.zeros((self.n_pixels, self.n_pixels), dtype=bool)
        if self.mask_radius is not None:
            np.put(masked, _band(self.n_x, self.n_y, self.mask_radius), True)
        return masked

    def save(self, path) -> None:
        arraystore.save_arrays(
            path, {"values": self.values, "g1": self.g1},
            {name: getattr(self, name) for name in _TENSOR_META}
            | {"kind": "corrected_g2", "flags": list(self.flags),
               "mask_radius": self.mask_radius})

    @classmethod
    def load(cls, path) -> "CorrectedG2":
        return cls._from_arrays(*arraystore.load_arrays(
            path, keep=("values", "g1")))

    @classmethod
    def _from_arrays(cls, arrays, meta) -> "CorrectedG2":
        if meta.get("kind") != "corrected_g2":
            raise ConfigError("container does not hold a corrected tensor")
        fields = _in_range(arraystore.check_meta(
            meta, **_TENSOR_META, flags=list, mask_radius=(int, type(None))))
        fields["flags"] = tuple(fields["flags"])
        n_pix = fields["n_x"] * fields["n_y"]
        pairs = ((n_pix, n_pix), np.float64)
        return cls(**fields, **arraystore.check_arrays(
            arrays, values=pairs, g1=((n_pix,), np.float64)))


def _rate_scale(acc: CorrelationAccumulator) -> float:
    # Factor from an accumulator's counts to rates per 1e6 frames.
    if acc.n_frames <= 0:
        raise EmptyAccumulator("no frames accumulated")
    return MFRAMES / acc.n_frames


def normalize(acc: CorrelationAccumulator) -> CorrectedG2:
    """Convert raw counts to rates per 1e6 frames."""
    scale = _rate_scale(acc)
    return CorrectedG2(
        values=acc.tensor("g2", scale), g1=acc.g1 * scale,
        flags=("raw",), n_x=acc.n_x, n_y=acc.n_y,
        bins_per_frame=acc.bins_per_frame, window=acc.window,
        shift=acc.shift, n_frames=acc.n_frames,
        mapping_mode=acc.mapping_mode)


def _axis_offsets(n, sources=None):
    # Per-axis table [i, a2] of the offset a2 - sources[i] to every pixel
    # a2 of an n-pixel axis; the sources default to the axis itself.
    a = np.arange(n)
    return a[None, :] - (a if sources is None else sources)[:, None]


def _over_pairs(tx, ty):
    # Views of per-axis tables tx[x1, x2] and ty[y1, y2] that broadcast
    # over the (y1, x1, y2, x2) layout of a pixel-pair tensor.
    return tx[None, :, None, :], ty[:, None, :, None]


def _offset_index(offsets, radius):
    # Offsets within the radius as indices 0..2r into a cross-talk table;
    # 2r + 1 marks every offset beyond it.
    return np.where(np.abs(offsets) <= radius, offsets + radius,
                    2 * radius + 1)


def _locus_distance(n_x, n_y, mapping_mode):
    # Chebyshev distance of each ordered pixel pair from the correlated
    # locus: the diagonal always, plus the mirror diagonal for far-field
    # data where pairs land on opposite sides of the optical axis (the
    # offset from the mirrored source pixel). Kept in the smallest signed
    # dtype that holds the largest distance.
    dtype = np.min_scalar_type(-max(n_x, n_y))

    def dist(sx=None, sy=None):
        return np.maximum(*_over_pairs(
            np.abs(_axis_offsets(n_x, sx)).astype(dtype),
            np.abs(_axis_offsets(n_y, sy)).astype(dtype)))

    out = dist()
    if mapping_mode == "far":
        np.minimum(out, dist(np.arange(n_x)[::-1], np.arange(n_y)[::-1]),
                   out=out)
    n_pix = n_x * n_y
    return out.reshape(n_pix, n_pix)


def estimate_accidentals(acc: CorrelationAccumulator,
                         method="shifted_window") -> np.ndarray:
    """Accidental-coincidence estimate per 1e6 frames, diagonal zero.

    shifted_window rescales the displaced-window counts by the ratio of
    triangular bin-difference occupancies so the estimate is unbiased even
    near the frame edge. g1_product fits a single constant on pairs far from
    every correlated locus and extrapolates c*g1(p1)*g1(p2).
    """
    scale = _rate_scale(acc)
    if method == "shifted_window":
        prompt = _window_mass(acc.bins_per_frame, -acc.window, acc.window)
        displaced = (
            _window_mass(acc.bins_per_frame, acc.shift - acc.window,
                         acc.shift + acc.window)
            + _window_mass(acc.bins_per_frame, -acc.shift - acc.window,
                           -acc.shift + acc.window))
        # the displaced tensor tests |dt|, so it carries both sign
        # intervals; the denominator above counts both as well. It is
        # positive: the accumulator keeps shift - window inside the frame.
        return acc.tensor("g2_shifted", (prompt / displaced) * scale)
    if method == "g1_product":
        dist = _locus_distance(acc.n_x, acc.n_y, acc.mapping_mode)
        sel = dist >= MASK_DISTANCE
        if int(np.count_nonzero(sel)) < MIN_MASK_PAIRS:
            raise InsufficientMask(
                f"only {int(np.count_nonzero(sel))} uncorrelated pairs")
        outer = acc.g1.astype(np.float64)[:, None] * acc.g1[None, :]
        # no whole-tensor copy: the fit reads the selected cells only
        far, g2_far = outer[sel], acc.tensor("g2")[sel]
        denom = float(np.sum(far ** 2))
        if denom <= 0:
            if np.any(g2_far):
                raise InsufficientMask("mask region has no singles")
            return np.zeros_like(outer)
        outer *= float(np.sum(g2_far * far)) / denom
        np.fill_diagonal(outer, 0.0)
        outer *= scale
        return outer
    raise ConfigError(f"unknown accidental estimator {method!r}")


def subtract_accidentals(corr: CorrectedG2, estimate: np.ndarray) -> CorrectedG2:
    """Subtract an accidental estimate; negative residuals are kept."""
    estimate = np.asarray(estimate, float)
    if estimate.shape != corr.values.shape:
        raise ConfigError("estimate shape does not match the tensor")
    return replace(corr, values=corr.values - estimate,
                   flags=corr.flags + ("accidental_subtracted",))


@dataclass(eq=False)
class CrosstalkMap:
    """Per-detection neighbour firing probabilities over pixel offsets."""

    probabilities: np.ndarray
    radius: int
    clamped_negative: int = 0

    def probability(self, dx: int, dy: int) -> float:
        r = self.radius
        if abs(dx) > r or abs(dy) > r:
            return 0.0
        return float(self.probabilities[dx + r, dy + r])

    def save(self, path) -> None:
        arraystore.save_arrays(
            path, {"probabilities": self.probabilities},
            {"kind": "crosstalk_map", "radius": self.radius,
             "clamped_negative": self.clamped_negative})

    @classmethod
    def load(cls, path) -> "CrosstalkMap":
        return cls._from_arrays(*arraystore.load_arrays(path))

    @classmethod
    def _from_arrays(cls, arrays, meta) -> "CrosstalkMap":
        if meta.get("kind") != "crosstalk_map":
            raise ConfigError("container does not hold a cross-talk map")
        fields = _in_range(arraystore.check_meta(meta, radius=int,
                                                 clamped_negative=int))
        side = 2 * fields["radius"] + 1
        return cls(**fields, **arraystore.check_arrays(
            arrays, probabilities=((side, side), np.float64)))


def estimate_crosstalk(acc: CorrelationAccumulator, estimate: np.ndarray,
                       inner_window=29) -> CrosstalkMap:
    """Estimate cross-talk probabilities from an uncorrelated run.

    acc holds the run's counts and estimate its accidental rates per 1e6
    frames. For uncorrelated illumination the only prompt pairs left after
    accidental subtraction are detection/echo pairs, so summing g2 - estimate
    over an inner block of source pixels at fixed offset and dividing by the
    singles in that block yields the combined echo rate of the +offset and
    -offset directions. Echoes always fire after their source, so the
    strictly-ordered share g2_later, less the estimate's share of it under
    the triangular bin occupancy, splits that total between the two
    directions; pairs in the same tdc bin carry no direction and follow the
    ordered ratio (an even split when no ordered pairs survive subtraction,
    which reproduces the plain half-total rule). Negative cells clamp to
    zero and are counted.

    The rates are formed one source row's block at a time and summed as
    offset-keyed bincounts; against one sum per offset this order of
    summation moves a probability by at most 1e-12 of the map's largest
    (about 1e-15 measured), and could only clamp a sum that cancels to zero
    within rounding differently.
    """
    scale = _rate_scale(acc)
    estimate = np.asarray(estimate, float)
    if estimate.shape != (acc.n_pixels, acc.n_pixels):
        raise ConfigError("estimate shape does not match the tensor")
    n_x, n_y = acc.n_x, acc.n_y
    if inner_window < 1 or inner_window > min(n_x, n_y):
        raise WindowTooLarge("inner window does not fit on the sensor")
    radius = inner_window - 1
    grid = 2 * radius + 2    # offsets -r..r, then one bin beyond the radius
    xs = np.arange((n_x - inner_window) // 2, (n_x + inner_window) // 2)
    ys = np.arange((n_y - inner_window) // 2, (n_y + inner_window) // 2)
    norm = float(np.sum((acc.g1 * scale).reshape(n_y, n_x)[np.ix_(ys, xs)]))
    if norm <= 0:
        raise EmptyAccumulator("inner window saw no singles")
    ordered = (_window_mass(acc.bins_per_frame, 1, acc.window)
               / _window_mass(acc.bins_per_frame, -acc.window, acc.window))
    g2, later, est = (a.reshape(n_y, n_x, n_y, n_x) for a in (
        acc.tensor("g2", scale), acc.tensor("g2_later", scale), estimate))
    swap = (2, 3, 0, 1)
    # pair rates at (source, target), their ordered shares with the target
    # and with the source fired later, and the share of the estimate each
    # loses: uncorrelated pairs have a sign-symmetric dt (x * 1.0 is x)
    terms = ((g2, est, 1.0), (later, est, ordered),
             (later.transpose(swap), est.transpose(swap), ordered))
    # key[0, sx, ty, tx] of the offset from (sy, sx) to (ty, tx) on a
    # grid x grid table whose last row and column collect what lies beyond
    # the radius
    kx, ky = _over_pairs(_offset_index(_axis_offsets(n_x, xs), radius),
                         _offset_index(_axis_offsets(n_y, ys), radius))
    sums = np.zeros((3, grid * grid))
    for row, sy in enumerate(ys):
        key = (kx * grid + ky[row:row + 1]).ravel()
        block = np.s_[sy:sy + 1, xs[0]:xs[-1] + 1]
        for out, (rates, accidental, share) in zip(sums, terms):
            rate = rates[block] - accidental[block] * share
            out += np.bincount(key, rate.ravel(), out.size)
    total, fwd, rev = sums.reshape(3, grid, grid)[:, :-1, :-1]
    total[radius, radius] = 0.0    # a pixel never pairs with itself
    fwd, rev = np.maximum((fwd, rev), 0.0)
    share = np.divide(fwd, fwd + rev, out=np.full_like(fwd, 0.5),
                      where=fwd + rev > 0)
    prob = share * total / norm
    negative = prob < 0
    prob[negative] = 0.0
    return CrosstalkMap(probabilities=prob, radius=radius,
                        clamped_negative=int(np.count_nonzero(negative)))


def correct_crosstalk(corr: CorrectedG2, cmap: CrosstalkMap) -> CorrectedG2:
    """Remove first-order detection/echo coincidences.

    An echo of a detection at p1 landing on p2 contributes
    p(p2 - p1) * g1(p1) pairs, and symmetrically for echoes of p2:
    p(p1 - p2) * g1(p2), read from the point-reflected table.
    """
    n_x, n_y, r = corr.n_x, corr.n_y, cmap.radius
    kx = _offset_index(_axis_offsets(n_x), r)
    ky = _offset_index(_axis_offsets(n_y), r)
    g1 = corr.g1.reshape(n_y, n_x)

    def term(probabilities, g1_view, out=None):
        # p(offset) * g1 over the (y1, y2, x1, x2) layout, gathered from a
        # table padded with the zero row and column that serve every
        # offset beyond the radius; each (y1, y2) block is one run of
        # n_x * n_x cells. Every key is in range, so mode="clip" clips
        # nothing; it only lets take write straight into out.
        table = np.zeros((2 * r + 2, 2 * r + 2))
        table[:-1, :-1] = probabilities
        out = np.take(table.T[ky], kx, axis=2, out=out, mode="clip")
        out *= g1_view
        return out

    # the corrected tensor's buffer holds the partner term until the
    # subtraction overwrites it. It is allocated before the echo, which is
    # freed on return: in the other order the closed loop's rounds took
    # 1.2-1.6x the page faults (glibc heap layout).
    values = np.empty(corr.values.shape)
    echo = term(cmap.probabilities, g1[:, None, :, None])
    echo += term(cmap.probabilities[::-1, ::-1], g1[None, :, None, :],
                 out=values.reshape(n_y, n_y, n_x, n_x))
    np.subtract(corr.values.reshape(n_y, n_x, n_y, n_x),
                echo.transpose(0, 2, 1, 3),
                out=values.reshape(n_y, n_x, n_y, n_x))
    return replace(corr, values=values,
                   flags=corr.flags + ("crosstalk_corrected",))


def _band(n_x, n_y, radius):
    # Flat cells of the pairs of distinct pixels within Chebyshev radius,
    # at most n_pix * ((2r + 1)^2 - 1): the per-axis (a1, a2) pairs within
    # the radius, combined except where both are equal
    n_pix = n_x * n_y
    x1, x2 = np.nonzero(np.abs(_axis_offsets(n_x)) <= radius)
    y1, y2 = np.nonzero(np.abs(_axis_offsets(n_y)) <= radius)
    return np.add.outer((y1 * n_pix + y2) * n_x, x1 * n_pix + x2)[
        ~np.logical_and.outer(y1 == y2, x1 == x2)]


def mask_neighbors(corr: CorrectedG2, radius=1) -> CorrectedG2:
    """Zero pairs of distinct pixels within Chebyshev radius.

    Cross-talk residuals and blooming live on immediate neighbours; masking
    removes them at the cost of holes near the correlation peak. Valid after
    either the accidental or the cross-talk stage, always last. The result's
    masked attribute marks the zeroed cells.
    """
    if radius < 0:
        raise ConfigError("mask radius must be non-negative")
    values = corr.values.copy()
    np.put(values, _band(corr.n_x, corr.n_y, radius), 0.0)
    return replace(corr, values=values, mask_radius=radius,
                   flags=corr.flags + ("neighbor_masked",))


def project_axes(values: np.ndarray, n_x: int, n_y: int):
    """Collapse g2[l1, l2] to per-axis tensors (x1, x2) and (y1, y2)."""
    t = np.asarray(values).reshape(n_y, n_x, n_y, n_x)
    g2x = t.sum(axis=(0, 2))
    g2y = t.sum(axis=(1, 3))
    return g2x, g2y


def project_sum_diff(values: np.ndarray, n_x: int, n_y: int):
    """Histogram pairs over (p1 + p2) and (p1 - p2) pixel coordinates.

    sum_map[sx, sy] covers px1+px2 in [2, 2*n_x]; diff_map[dx, dy] covers
    px1-px2 in [-(n_x-1), n_x-1]. Index 0 is the lowest value of each range.
    Each map is one weighted bincount over combined (x, y) pair keys.
    """
    t = np.asarray(values).reshape(n_y, n_x, n_y, n_x).ravel()
    x = np.arange(n_x)
    y = np.arange(n_y)
    shape = (2 * n_x - 1, 2 * n_y - 1)

    def histogram(kx, ky):
        # kx[x1, x2] and ky[y1, y2] are map indices; cell (y1, x1, y2, x2)
        # lands in flat bin kx * (2 n_y - 1) + ky
        key = np.add(*_over_pairs(kx * shape[1], ky))
        return np.bincount(key.ravel(), weights=t,
                           minlength=shape[0] * shape[1]).reshape(shape)

    return (histogram(x[:, None] + x[None, :], y[:, None] + y[None, :]),
            histogram(x[:, None] - x[None, :] + n_x - 1,
                      y[:, None] - y[None, :] + n_y - 1))


def peak_profiles(proj: np.ndarray):
    """Sum and difference profiles of one n x n axis projection.

    sum_profile[s] adds the cells with a1 + a2 = s (anti-diagonals) and
    diff_profile[d] those with a1 - a2 = d - (n - 1) (diagonals), both of
    length 2n - 1. They equal project_sum_diff's maps summed over the other
    axis, at the cost of one weighted bincount over n * n cells each.
    """
    proj = np.asarray(proj, dtype=float)
    n = proj.shape[0]
    i = np.arange(n)
    return tuple(np.bincount(key.ravel(), weights=proj.ravel(),
                             minlength=2 * n - 1)
                 for key in (i[:, None] + i[None, :],
                             i[:, None] - i[None, :] + n - 1))
