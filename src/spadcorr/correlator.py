"""Frame-wise coincidence accumulation and correction of pixel-pair tensors.

Pixels are addressed by the linear index l = px + n_x*(py - 1) with px, py
starting at 1, so l runs from 1 to n_x*n_y. Tensors are stored 0-based:
g2[l1-1, l2-1]. Both orderings of every coincident pair are counted and the
diagonal stays structurally zero because a pixel fires at most once per frame.
Accumulation checks FrameBatch's strict (frame, pixel) order and rejects a
batch that breaks it with MalformedFrame (CLI exit 3); it never re-sorts.

The correction chain is recorded in provenance flags on CorrectedG2 and must
advance in one direction only:

    raw -> accidental_subtracted -> crosstalk_corrected -> neighbor_masked

Skipping a stage is allowed where noted; revisiting one is not.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import arraystore
from .errors import (
    ConfigError,
    DisjointnessViolation,
    EmptyAccumulator,
    FlagOrderViolation,
    InsufficientMask,
    InvariantViolation,
    MalformedFrame,
    OutOfRange,
    WindowTooLarge,
)
from .optics import MAPPING_MODES
from .sensor import FrameBatch

FLAG_ORDER = ("raw", "accidental_subtracted", "crosstalk_corrected",
              "neighbor_masked")
# meta fields shared by the accumulator and corrected-tensor containers
_TENSOR_META = dict(n_x=int, n_y=int, bins_per_frame=int, window=int,
                    shift=int, n_frames=int, mapping_mode=str)

MFRAMES = 1.0e6


def _in_range(fields: dict) -> dict:
    # Rejects type-checked meta values that no saver writes.
    bad = [name for name in ("n_frames", "mask_radius", "clamped_negative")
           if (fields.get(name) or 0) < 0]
    if fields.get("mapping_mode", "far") not in MAPPING_MODES:
        bad.append("mapping_mode")
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


@dataclass(eq=False)
class CorrelationAccumulator:
    """Raw-count store for one correlation pass.

    g2 and g2_shifted hold ordered pixel-pair counts inside the prompt
    window |dt| <= window and the displaced window ||dt| - shift| <= window.
    g2_later[l1, l2] counts the prompt pairs where l2 fired strictly after
    l1; the tdc-equal remainder is direction-blind. dt_hist covers every
    same-frame pair regardless of window, both signs.

    shift > window keeps the displaced window off dt = 0, but the two
    windows still share |dt| = shift - window whenever shift <= 2 * window,
    as at the reference window 10 and shift 20: a pair there counts in both
    g2 and g2_shifted. The displaced window keeps that definition, overlap
    included; the benchmark's independent pair loop (spadbench/checks.py)
    checks accumulators against it.
    """

    n_x: int
    n_y: int
    bins_per_frame: int
    window: int
    shift: int
    mapping_mode: str = "unspecified"
    n_frames: int = 0
    g2: np.ndarray = field(default=None)
    g2_shifted: np.ndarray = field(default=None)
    g2_later: np.ndarray = field(default=None)
    g1: np.ndarray = field(default=None)
    dt_hist: np.ndarray = field(default=None)

    def __post_init__(self):
        n_pix = self.n_x * self.n_y
        if self.window < 0 or self.window > self.bins_per_frame - 1:
            raise WindowTooLarge("coincidence window exceeds the frame")
        if self.shift <= self.window:
            raise DisjointnessViolation(
                "shifted window overlaps the prompt window")
        if self.shift - self.window > self.bins_per_frame - 1:
            raise WindowTooLarge("shifted window lies beyond the frame")
        if self.g2 is None:
            self.g2 = np.zeros((n_pix, n_pix), dtype=np.int64)
        if self.g2_shifted is None:
            self.g2_shifted = np.zeros((n_pix, n_pix), dtype=np.int64)
        if self.g2_later is None:
            self.g2_later = np.zeros((n_pix, n_pix), dtype=np.int64)
        if self.g1 is None:
            self.g1 = np.zeros(n_pix, dtype=np.int64)
        if self.dt_hist is None:
            self.dt_hist = np.zeros(2 * self.bins_per_frame - 1,
                                    dtype=np.int64)

    @property
    def n_pixels(self) -> int:
        return self.n_x * self.n_y

    def add_batch(self, batch: FrameBatch) -> None:
        if not isinstance(batch, FrameBatch):
            raise MalformedFrame(f"cannot accumulate {type(batch).__name__}")
        f = np.asarray(batch.frame_ids, dtype=np.int64)
        p = np.asarray(batch.pixels, dtype=np.int64)
        t = np.asarray(batch.tdc, dtype=np.int64)
        if not (f.shape == p.shape == t.shape):
            raise MalformedFrame("event columns differ in length")
        self.n_frames += int(batch.n_frames)
        if f.size == 0:
            return
        if np.any(p < 1) or np.any(p > self.n_pixels):
            raise MalformedFrame("pixel index outside the array")
        if np.any(t < 0) or np.any(t >= self.bins_per_frame):
            raise MalformedFrame("tdc code outside the frame")
        step = np.diff(f * self.n_pixels + p)
        if np.any(step <= 0):
            raise MalformedFrame("pixel fired twice in one frame"
                                 if np.any(step == 0) else
                                 "events out of (frame, pixel) order")
        self.g1 += np.bincount(p - 1, minlength=self.n_pixels)

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
            # the tensors count pairs with |dt| <= shift + window only;
            # their scatters add integers, so dropping the other pairs
            # first changes no count. Masks select through index arrays,
            # which numpy gathers faster than it applies a mixed boolean
            # mask.
            near = np.flatnonzero(np.abs(dt) <= self.shift + self.window)
            dt, k = dt[near], i[near]
            pi, pj = p[k], p[lag:][k]
            adt = np.abs(dt)
            win = adt <= self.window
            sw = np.abs(adt - self.shift) <= self.window
            # flat cells of both orders; a pair adds to [p_i, p_j] where
            # fwd holds and to [p_j, p_i] where rev holds, one scatter per
            # tensor into its C-contiguous storage
            ij = (pi - 1) * self.n_pixels + pj - 1
            ji = (pj - 1) * self.n_pixels + pi - 1
            for tensor, fwd, rev in ((self.g2, win, win),
                                     (self.g2_later, win & (dt < 0),
                                      win & (dt > 0)),
                                     (self.g2_shifted, sw, sw)):
                np.add.at(tensor.reshape(-1),
                          np.concatenate((ij[np.flatnonzero(fwd)],
                                          ji[np.flatnonzero(rev)])), 1)
            # i keeps a partner at lag + 1 where event i + lag has one at 1
            i = i[same[lag:][i]]
            lag += 1

    def save(self, path) -> None:
        arraystore.save_arrays(
            path,
            {"g2": self.g2, "g2_shifted": self.g2_shifted,
             "g2_later": self.g2_later, "g1": self.g1,
             "dt_hist": self.dt_hist},
            {"kind": "accumulator", "n_x": self.n_x, "n_y": self.n_y,
             "bins_per_frame": self.bins_per_frame, "window": self.window,
             "shift": self.shift, "mapping_mode": self.mapping_mode,
             "n_frames": self.n_frames})

    @classmethod
    def load(cls, path) -> "CorrelationAccumulator":
        arrays, meta = arraystore.load_arrays(path)
        if meta.get("kind") != "accumulator":
            raise ConfigError("container does not hold an accumulator")
        fields = _in_range(arraystore.check_meta(meta, **_TENSOR_META))
        n_pix = fields["n_x"] * fields["n_y"]
        pairs = ((n_pix, n_pix), np.int64)
        return cls(**fields, **arraystore.check_arrays(
            arrays, g2=pairs, g2_shifted=pairs, g2_later=pairs,
            g1=((n_pix,), np.int64),
            dt_hist=((2 * fields["bins_per_frame"] - 1,), np.int64)))


def accumulate(batches, *, window=10, shift=20, n_x=32, n_y=32,
               bins_per_frame=255, mapping_mode="unspecified"
               ) -> CorrelationAccumulator:
    """Build a CorrelationAccumulator from one FrameBatch or an iterable.

    Counts are integer sums over frames, so how the frames are split into
    batches never changes the result.
    """
    acc = CorrelationAccumulator(
        n_x=n_x, n_y=n_y, bins_per_frame=bins_per_frame, window=window,
        shift=shift, mapping_mode=mapping_mode)
    for batch in [batches] if isinstance(batches, FrameBatch) else batches:
        acc.add_batch(batch)
    return acc


@dataclass(eq=False)
class CorrectedG2:
    """Pixel-pair rates per 1e6 frames, with correction provenance.

    values_later keeps the strictly-ordered share of each pair rate
    (second pixel fired after the first); the cross-talk estimator reads
    it to attribute echo direction. It is maintained through accidental
    subtraction only, later stages do not need it.
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
    masked: np.ndarray = None
    mask_radius: int = None
    values_later: np.ndarray = None

    def __post_init__(self):
        if self.masked is None:
            self.masked = np.zeros_like(self.values, dtype=bool)
        if self.values_later is None:
            self.values_later = np.zeros_like(self.values)

    @property
    def n_pixels(self) -> int:
        return self.n_x * self.n_y

    def save(self, path) -> None:
        arraystore.save_arrays(
            path,
            {"values": self.values, "g1": self.g1, "masked": self.masked,
             "values_later": self.values_later},
            {"kind": "corrected_g2", "flags": list(self.flags),
             "n_x": self.n_x, "n_y": self.n_y,
             "bins_per_frame": self.bins_per_frame, "window": self.window,
             "shift": self.shift, "n_frames": self.n_frames,
             "mapping_mode": self.mapping_mode,
             "mask_radius": self.mask_radius})

    @classmethod
    def load(cls, path) -> "CorrectedG2":
        arrays, meta = arraystore.load_arrays(path)
        if meta.get("kind") != "corrected_g2":
            raise ConfigError("container does not hold a corrected tensor")
        fields = _in_range(arraystore.check_meta(
            meta, **_TENSOR_META, flags=list, mask_radius=(int, type(None))))
        if any(flag not in FLAG_ORDER for flag in fields["flags"]):
            raise InvariantViolation("unknown correction flag")
        fields["flags"] = tuple(fields["flags"])
        n_pix = fields["n_x"] * fields["n_y"]
        pairs = ((n_pix, n_pix), np.float64)
        return cls(**fields, **arraystore.check_arrays(
            arrays, values=pairs, values_later=pairs,
            masked=((n_pix, n_pix), np.bool_), g1=((n_pix,), np.float64)))


def _require_stage(corr: CorrectedG2, adding: str, needs: tuple) -> None:
    if adding in corr.flags:
        raise FlagOrderViolation(f"{adding} already applied")
    idx = FLAG_ORDER.index(adding)
    for later in FLAG_ORDER[idx + 1:]:
        if later in corr.flags:
            raise FlagOrderViolation(
                f"cannot apply {adding} after {later}")
    for flag in needs:
        if flag not in corr.flags:
            raise FlagOrderViolation(f"{adding} requires {flag} first")


def normalize(acc: CorrelationAccumulator) -> CorrectedG2:
    """Convert raw counts to rates per 1e6 frames."""
    if acc.n_frames <= 0:
        raise EmptyAccumulator("no frames accumulated")
    scale = MFRAMES / acc.n_frames
    return CorrectedG2(
        values=acc.g2.astype(np.float64) * scale,
        values_later=acc.g2_later.astype(np.float64) * scale,
        g1=acc.g1.astype(np.float64) * scale,
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


def estimate_accidentals(acc: CorrelationAccumulator, method="shifted_window",
                         *, mask_distance=10, min_mask_pairs=100) -> np.ndarray:
    """Accidental-coincidence estimate per 1e6 frames, diagonal zero.

    shifted_window rescales the displaced-window counts by the ratio of
    triangular bin-difference occupancies so the estimate is unbiased even
    near the frame edge. g1_product fits a single constant on pairs far from
    every correlated locus and extrapolates c*g1(p1)*g1(p2).
    """
    if acc.n_frames <= 0:
        raise EmptyAccumulator("no frames accumulated")
    scale = MFRAMES / acc.n_frames
    if method == "shifted_window":
        prompt = _window_mass(acc.bins_per_frame, -acc.window, acc.window)
        displaced = (
            _window_mass(acc.bins_per_frame, acc.shift - acc.window,
                         acc.shift + acc.window)
            + _window_mass(acc.bins_per_frame, -acc.shift - acc.window,
                           -acc.shift + acc.window))
        # add_batch tests |dt|, so the displaced tensor carries both sign
        # intervals; the denominator above counts both as well. It is
        # positive: the accumulator keeps shift - window inside the frame.
        est = acc.g2_shifted.astype(np.float64)
        est *= (prompt / displaced) * scale
        return est
    if method == "g1_product":
        dist = _locus_distance(acc.n_x, acc.n_y, acc.mapping_mode)
        sel = dist >= mask_distance
        if int(np.count_nonzero(sel)) < min_mask_pairs:
            raise InsufficientMask(
                f"only {int(np.count_nonzero(sel))} uncorrelated pairs")
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
    raise ConfigError(f"unknown accidental estimator {method!r}")


def subtract_accidentals(corr: CorrectedG2, estimate: np.ndarray) -> CorrectedG2:
    """Subtract an accidental estimate; negative residuals are kept.

    Uncorrelated pairs have a sign-symmetric dt distribution with the
    triangular bin occupancy, so the strictly-ordered share receives the
    matching fraction of the estimate.
    """
    _require_stage(corr, "accidental_subtracted", ("raw",))
    estimate = np.asarray(estimate, float)
    if estimate.shape != corr.values.shape:
        raise ConfigError("estimate shape does not match the tensor")
    pos = _window_mass(corr.bins_per_frame, 1, corr.window)
    both = _window_mass(corr.bins_per_frame, -corr.window, corr.window)
    return replace(corr, values=corr.values - estimate,
                   values_later=corr.values_later - estimate * (pos / both),
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
        arrays, meta = arraystore.load_arrays(path)
        if meta.get("kind") != "crosstalk_map":
            raise ConfigError("container does not hold a cross-talk map")
        fields = _in_range(arraystore.check_meta(meta, radius=int,
                                                 clamped_negative=int))
        side = 2 * fields["radius"] + 1
        return cls(**fields, **arraystore.check_arrays(
            arrays, probabilities=((side, side), np.float64)))


def estimate_crosstalk(corr: CorrectedG2, inner_window=29) -> CrosstalkMap:
    """Estimate cross-talk probabilities from an accidental-subtracted tensor.

    For uncorrelated illumination the only prompt pairs left after accidental
    subtraction are detection/echo pairs, so summing g2 over an inner block
    of source pixels at fixed offset and dividing by the singles in that
    block yields the combined echo rate of the +offset and -offset
    directions. Echoes always fire after their source, so the
    strictly-ordered share splits that total between the two directions;
    pairs in the same tdc bin carry no direction and follow the ordered
    ratio (an even split when no ordered pairs survive subtraction, which
    reproduces the plain half-total rule). Negative cells clamp to zero and
    are counted.

    The sums are offset-keyed bincounts, one source row at a time; against
    one sum per offset this order of summation moves a probability by at
    most 1e-12 of the map's largest (about 1e-15 measured), and could only
    clamp a sum that cancels to zero within rounding differently.
    """
    _require_stage(corr, "crosstalk_corrected", ("accidental_subtracted",))
    n_x, n_y = corr.n_x, corr.n_y
    if inner_window < 1 or inner_window > min(n_x, n_y):
        raise WindowTooLarge("inner window does not fit on the sensor")
    radius = inner_window - 1
    grid = 2 * radius + 2    # offsets -r..r, then one bin beyond the radius
    xs = np.arange((n_x - inner_window) // 2, (n_x + inner_window) // 2)
    ys = np.arange((n_y - inner_window) // 2, (n_y + inner_window) // 2)
    norm = float(np.sum(corr.g1.reshape(n_y, n_x)[np.ix_(ys, xs)]))
    if norm <= 0:
        raise EmptyAccumulator("inner window saw no singles")
    later = corr.values_later.reshape(n_y, n_x, n_y, n_x)
    # pair rates at (source, target), and their ordered shares with the
    # target fired later and with the source fired later
    tensors = (corr.values.reshape(n_y, n_x, n_y, n_x), later,
               later.transpose(2, 3, 0, 1))
    # key[0, sx, ty, tx] of the offset from (sy, sx) to (ty, tx) on a
    # grid x grid table whose last row and column collect what lies beyond
    # the radius
    kx, ky = _over_pairs(_offset_index(_axis_offsets(n_x, xs), radius),
                         _offset_index(_axis_offsets(n_y, ys), radius))
    sums = np.zeros((3, grid * grid))
    for row, sy in enumerate(ys):
        key = (kx * grid + ky[row:row + 1]).ravel()
        block = np.s_[sy:sy + 1, xs[0]:xs[-1] + 1]
        for out, tensor in zip(sums, tensors):
            out += np.bincount(key, tensor[block].ravel(), out.size)
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


def _offset_lookup(cmap: CrosstalkMap, n_x: int, n_y: int) -> np.ndarray:
    # XT[l1, l2] = p(pixel(l2) - pixel(l1)) for every ordered pixel pair,
    # gathered through the per-axis offset indices; the zero row and column
    # padded onto the table serve every offset beyond the radius.
    r = cmap.radius
    table = np.zeros((2 * r + 2, 2 * r + 2))
    table[:-1, :-1] = cmap.probabilities
    n_pix = n_x * n_y
    return table[_over_pairs(_offset_index(_axis_offsets(n_x), r),
                             _offset_index(_axis_offsets(n_y), r))
                 ].reshape(n_pix, n_pix)


def correct_crosstalk(corr: CorrectedG2, cmap: CrosstalkMap) -> CorrectedG2:
    """Remove first-order detection/echo coincidences.

    An echo of a detection at p1 landing on p2 contributes
    p(p2 - p1) * g1(p1) pairs, and symmetrically for echoes of p2.
    """
    _require_stage(corr, "crosstalk_corrected", ("accidental_subtracted",))
    echo = _offset_lookup(cmap, corr.n_x, corr.n_y)
    echo *= corr.g1[:, None]
    echo = echo + echo.T    # not in place: echo.T is a view of echo
    return replace(corr, values=corr.values - echo,
                   flags=corr.flags + ("crosstalk_corrected",))


def neighbor_mask_pairs(n_x: int, n_y: int, radius: int) -> np.ndarray:
    """Boolean (n_pix, n_pix) matrix of pairs within Chebyshev radius."""
    dist = _locus_distance(n_x, n_y, "unspecified")
    return (dist <= radius) & (dist > 0)


def mask_neighbors(corr: CorrectedG2, radius=1) -> CorrectedG2:
    """Zero and flag pairs of distinct pixels within Chebyshev radius.

    Cross-talk residuals and blooming live on immediate neighbours; masking
    removes them at the cost of holes near the correlation peak. Valid after
    either the accidental or the cross-talk stage, always last.
    """
    if radius < 0:
        raise ConfigError("mask radius must be non-negative")
    _require_stage(corr, "neighbor_masked", ("accidental_subtracted",))
    masked = neighbor_mask_pairs(corr.n_x, corr.n_y, radius)
    values = corr.values.copy()
    values[masked] = 0.0
    return replace(corr, values=values, masked=masked | corr.masked,
                   mask_radius=radius,
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
