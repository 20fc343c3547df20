"""Monte Carlo model of a gated, time-tagging SPAD array.

Each frame is an independent exposure: a Poisson number of photon pairs is
drawn, every photon survives detection with probability eta and lands on a
pixel through the configured optical mapping, dark counts arrive uniformly in
time on every pixel, optical cross-talk can fire neighbours of any detection,
and finally each pixel time-stamps only its earliest event in the frame with
a TDC of fixed bin width. Events whose time falls outside the frame gate are
lost.

The random draws scale with the events emitted, not with frames or sources.
A group of n frames draws one Poisson(n * mean) pair total and puts each
pair on a uniformly random frame. That is the law of independent
Poisson(mean) counts per frame: their sum is Poisson(n * mean) and, given
the sum, the pairs fall on the frames uniformly. Dark counts are one
Poisson total over pixels x frames, placed the same way. Cross-talk draws,
per neighbour offset, a Binomial(N, p) hit count and a uniform subset of
that many of the N detections: the law of N independent Bernoulli(p)
trials.

The group is the unit of randomness and of array work: the stream is cut
into groups of consecutive 65536-frame chunks, as many as fit in an expected
2^16 events by the configured pair and dark means, and at least one. Each
group draws on its own counter-based RNG substream keyed on (seed, group
index), making each stage's draws once over the whole group. Group
boundaries follow from the configuration alone, so a run is byte-identical
no matter how many workers simulate the groups. Where every group is one
chunk, as in the dense characterization stream, the group index is the
chunk index.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator

import numpy as np

from .errors import ConfigError, MalformedFrame
from .optics import DoubleGaussianModel, OpticalMapping

CHUNK_FRAMES = 65536
# FrameBatch.pixels holds the 1-based linear index as uint16
MAX_PIXELS = 65535
# RNG domain-separation tags (arbitrary fixed integers)
_SIM_TAG = 0x51D
_OFFSET_TAG = 0x0FF
# expected events a chunk group is sized to hold. A chunk expecting more is
# a group on its own, as a dense characterization chunk (about 105k) is; a
# group twice this size had temporaries above such a chunk's and raised the
# closed loop's peak RSS.
_GROUP_EVENTS = 1 << 16


@dataclasses.dataclass(frozen=True, eq=False)
class SensorConfig:
    """Static sensor parameters.

    pixel_offsets_ps holds one static time offset per pixel, indexed by
    linear pixel index - 1 (x fastest); None means zero offsets. efficiency
    is the acceptance-path default 0.5; the measured hardware photon
    detection efficiency of this sensor class is ~0.008 at 810 nm, which
    only rescales rates.
    """

    n_x: int = 32
    n_y: int = 32
    pixel_pitch_um: float = 44.67
    tdc_bin_ps: float = 205.0
    bins_per_frame: int = 255
    efficiency: float = 0.5
    dark_rate_hz: float = 1000.0
    jitter_sigma_ps: float = 200.0
    pixel_offsets_ps: np.ndarray | None = None

    def __post_init__(self):
        if self.n_x < 1 or self.n_y < 1:
            raise ConfigError("sensor dimensions must be positive")
        if self.n_x * self.n_y > MAX_PIXELS:
            raise ConfigError(f"{self.n_x}x{self.n_y} sensor exceeds "
                              f"{MAX_PIXELS} pixels")
        if not (0.0 <= self.efficiency <= 1.0):
            raise ConfigError("efficiency must be in [0, 1]")
        if self.dark_rate_hz < 0 or self.jitter_sigma_ps < 0:
            raise ConfigError("rates and jitter must be nonnegative")
        if self.tdc_bin_ps <= 0 or self.pixel_pitch_um <= 0:
            raise ConfigError("tdc bin and pitch must be positive")
        if not (1 <= self.bins_per_frame <= 256):
            raise ConfigError("bins_per_frame must be in [1, 256]")
        if self.pixel_offsets_ps is not None:
            arr = np.asarray(self.pixel_offsets_ps, dtype=float)
            if arr.shape != (self.n_pixels,):
                raise ConfigError("pixel_offsets_ps must have one entry per pixel")
            object.__setattr__(self, "pixel_offsets_ps", arr)

    @property
    def n_pixels(self) -> int:
        return self.n_x * self.n_y

    @property
    def frame_duration_ps(self) -> float:
        return self.bins_per_frame * self.tdc_bin_ps


def draw_pixel_offsets(cfg: SensorConfig, range_ps: float,
                       seed: int) -> SensorConfig:
    """Return a copy of cfg with per-pixel offsets ~ U(-range_ps, +range_ps).

    Drawn once from a dedicated substream of the run seed, so the same seed
    always yields the same offsets regardless of what else was simulated.
    """
    if range_ps < 0:
        raise ConfigError("offset range must be nonnegative")
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence([seed, _OFFSET_TAG])))
    offs = rng.uniform(-range_ps, range_ps, cfg.n_pixels)
    return dataclasses.replace(cfg, pixel_offsets_ps=offs)


@dataclasses.dataclass(frozen=True)
class CrosstalkSpec:
    """Injection probabilities p(dx, dy) per detection.

    Stored as a sorted tuple of (dx, dy, p). The self offset (0, 0) is
    forbidden. Point symmetry is not assumed: p(dx, dy) and p(-dx, -dy) are
    independent entries.
    """

    entries: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        seen = set()
        for dx, dy, p in self.entries:
            if (dx, dy) == (0, 0):
                raise ConfigError("cross-talk to the originating pixel is not allowed")
            if not (0.0 <= p <= 1.0):
                raise ConfigError("cross-talk probability must be in [0, 1]")
            if (dx, dy) in seen:
                raise ConfigError(f"duplicate cross-talk offset {(dx, dy)}")
            seen.add((dx, dy))
        object.__setattr__(self, "entries",
                           tuple(sorted(self.entries)))

    @classmethod
    def from_dict(cls, probs: dict[tuple[int, int], float]) -> "CrosstalkSpec":
        return cls(tuple((dx, dy, float(p)) for (dx, dy), p in probs.items()
                         if p > 0.0))

    @classmethod
    def none(cls) -> "CrosstalkSpec":
        return cls(())

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def probability(self, dx: int, dy: int) -> float:
        for ex, ey, p in self.entries:
            if (ex, ey) == (dx, dy):
                return p
        return 0.0


@dataclasses.dataclass(frozen=True, eq=False)
class FrameBatch:
    """Columnar slice of the frame stream covering [start_frame, start_frame + n_frames).

    Event arrays are strictly sorted by (frame_id, pixel), so a pixel fires
    at most once per frame, and every frame id lies in the batch's frames.
    Empty frames have no rows but still count toward n_frames. The writer
    and the accumulator check this contract through checked_columns alone;
    a batch that breaks it is never re-sorted.
    """

    start_frame: int
    n_frames: int
    frame_ids: np.ndarray   # int64, one per event
    pixels: np.ndarray      # uint16, 1-based linear index
    tdc: np.ndarray         # uint8

    @property
    def n_events(self) -> int:
        return int(self.frame_ids.size)

    def checked_columns(self, n_pixels: int, bins_per_frame: int):
        """The event columns as int64 (frame ids, pixels, tdc codes).

        Raises MalformedFrame (CLI exit 3) unless the columns are 1-D of
        one length, n_frames is not negative, every id lies in
        [start_frame, start_frame + n_frames), pixels in [1, n_pixels],
        tdc codes in [0, bins_per_frame), and the events strictly increase
        in (frame id, pixel).
        """
        f, p, t = (np.asarray(c, dtype=np.int64)
                   for c in (self.frame_ids, self.pixels, self.tdc))
        if not (f.ndim == 1 and f.shape == p.shape == t.shape):
            raise MalformedFrame("event columns are not 1-D of one length")
        if self.n_frames < 0:
            raise MalformedFrame("negative frame count")
        if not f.size:
            return f, p, t
        # the (frame, pixel) order checked below makes the first and last
        # ids bound the rest
        if f[0] < self.start_frame or \
                f[-1] >= self.start_frame + self.n_frames:
            raise MalformedFrame("frame id outside the batch's frames")
        if np.any(p < 1) or np.any(p > n_pixels):
            raise MalformedFrame("pixel index outside the array")
        if np.any(t < 0) or np.any(t >= bins_per_frame):
            raise MalformedFrame("tdc code outside the frame")
        step = np.diff(f * n_pixels + p)
        if np.any(step <= 0):
            raise MalformedFrame("pixel fired twice in one frame"
                                 if np.any(step == 0) else
                                 "events out of (frame, pixel) order")
        return f, p, t


def quantize_tdc(t_ps, cfg: SensorConfig):
    """TDC bins of arrival times and the mask of those inside the frame gate.

    Returns (bins, inside) as int64 codes and booleans; a code means
    something only where inside is true.
    """
    t_ps = np.asarray(t_ps, dtype=float)
    bins = np.floor(t_ps / cfg.tdc_bin_ps).astype(np.int64)
    inside = ((t_ps >= 0.0) & (t_ps < cfg.frame_duration_ps)
              & (bins < cfg.bins_per_frame))
    return bins, inside


def _draw_pair_coordinates(model, mapping, count, rng):
    # Sensor-plane landing coordinates (rho1, rho2) of count photon pairs,
    # two (count, 2) arrays in um relative to the optical axis. Far field
    # draws the momentum-space density and scales by lambda f / 2 pi; near
    # field draws the position-space density (coordinate widths
    # 1/(2 sigma_q+-)) and scales by the magnification.
    if mapping.mode == "far":
        sp = (model.sigma_q_plus_x, model.sigma_q_plus_y)
        sm = (model.sigma_q_minus_x, model.sigma_q_minus_y)
        scale = 1.0 / mapping.far_scale_per_mm_per_um   # um per (1/mm)
    elif mapping.mode == "near":
        # positions in the object plane; duality pairs like coordinates
        sp = (1e3 / (2 * model.sigma_q_plus_x), 1e3 / (2 * model.sigma_q_plus_y))
        sm = (1e3 / (2 * model.sigma_q_minus_x), 1e3 / (2 * model.sigma_q_minus_y))
        scale = mapping.magnification
    else:
        raise ConfigError("simulation needs a near or far mapping")
    plus = rng.normal(0.0, 1.0, (count, 2)) * np.asarray(sp)
    minus = rng.normal(0.0, 1.0, (count, 2)) * np.asarray(sm)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    c1 = (plus + minus) * inv_sqrt2 * scale
    c2 = (plus - minus) * inv_sqrt2 * scale
    return c1, c2


def inject_crosstalk(frame_ids: np.ndarray, pixels_lin: np.ndarray,
                     times_ps: np.ndarray, spec: CrosstalkSpec,
                     cfg: SensorConfig, rng: np.random.Generator):
    """Append cross-talk secondaries to a list of detections.

    Every input detection independently fires each configured neighbour
    offset with its probability; the secondary lands in the source's frame
    at the source time plus a uniform delay within one TDC bin. Secondaries
    do not cascade. Off-sensor neighbours are discarded. Returns
    (frame_ids, pixels, times) with the secondaries appended, per offset in
    the order of their sources.

    Per offset the draw is a Binomial(N, p) hit count and a uniform subset
    of that many of the N sources: the law of N independent Bernoulli(p)
    trials, with random draws that scale with the hits, not the sources.
    """
    pixels_lin = np.asarray(pixels_lin)
    times_ps = np.asarray(times_ps, dtype=float)
    n = pixels_lin.size
    add_f, add_pix, add_t = [frame_ids], [pixels_lin], [times_ps]
    for dx, dy, p in spec.entries:
        n_hit = rng.binomial(n, p)
        hit = np.sort(rng.choice(n, n_hit, replace=False, shuffle=False))
        delay = rng.uniform(0.0, cfg.tdc_bin_ps, n_hit)
        base0 = pixels_lin[hit].astype(np.int64) - 1
        ncol = base0 % cfg.n_x + dx
        nrow = base0 // cfg.n_x + dy
        ok = (ncol >= 0) & (ncol < cfg.n_x) & (nrow >= 0) & (nrow < cfg.n_y)
        add_f.append(frame_ids[hit][ok])
        add_pix.append((nrow[ok] * cfg.n_x + ncol[ok] + 1).astype(pixels_lin.dtype))
        add_t.append(times_ps[hit][ok] + delay[ok])
    return tuple(np.concatenate(c) for c in (add_f, add_pix, add_t))


def simulate_frames(model: DoubleGaussianModel, mapping: OpticalMapping,
                    cfg: SensorConfig, n_frames: int,
                    pairs_per_frame_mean: float,
                    crosstalk: CrosstalkSpec | None = None,
                    seed: int = 0, workers: int = 1
                    ) -> Iterator[FrameBatch]:
    """Generate the frame stream as one FrameBatch per group.

    The group is the unit of randomness and of array work: group k makes
    its draws on its own substream keyed (seed, k), once per stage over all
    its frames. A group covers max(1, 2^16 // E) consecutive 65536-frame
    chunks, where E is a chunk's expected detections, 65536 * (2 * pair
    mean * efficiency + dark counts per frame) * (1 + summed cross-talk
    probability); the last group may be shorter. The boundaries follow
    from the configuration alone, so the worker count cannot change the
    output.
    """
    if n_frames < 0:
        raise ConfigError("n_frames must be nonnegative")
    if pairs_per_frame_mean < 0:
        raise ConfigError("pair rate must be nonnegative")
    if mapping.mode not in ("far", "near"):
        raise ConfigError("simulation needs a near or far mapping")
    crosstalk = crosstalk or CrosstalkSpec.none()
    chunk_events = (CHUNK_FRAMES
                    * (2.0 * pairs_per_frame_mean * cfg.efficiency
                       + _dark_mean(cfg))
                    * (1.0 + sum(p for _, _, p in crosstalk.entries)))
    step = CHUNK_FRAMES * max(1, int(_GROUP_EVENTS // max(chunk_events, 1.0)))
    groups = [(k, lo, min(lo + step, n_frames))
              for k, lo in enumerate(range(0, n_frames, step))]

    def run(group):
        return _simulate_group(model, mapping, cfg, crosstalk,
                               pairs_per_frame_mean, seed, *group)

    if workers <= 1 or len(groups) <= 1:
        for group in groups:
            yield run(group)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(run, groups)


def _dark_mean(cfg: SensorConfig) -> float:
    # expected dark counts per frame over the whole array
    return cfg.dark_rate_hz * cfg.frame_duration_ps * 1e-12 * cfg.n_pixels


def _place_on_frames(rng, mean, lo, hi) -> np.ndarray:
    """Frame ids of events of frames [lo, hi), in no order.

    One Poisson((hi - lo) * mean) total placed on uniformly random frames,
    so each frame holds an independent Poisson(mean) number.
    """
    total = rng.poisson(mean * (hi - lo)) if mean > 0 else 0
    return rng.integers(lo, hi, total)


def _simulate_group(model, mapping, cfg, crosstalk, pairs_mean,
                    seed, index, lo, hi) -> FrameBatch:
    # Group index of frames [lo, hi) draws on one substream, stage by
    # stage: the pairs, the jitter of their detected photons, the dark
    # counts, then the cross-talk of every detection. The detection list is
    # the on-sensor photons of the first pair member, then of the second,
    # then the dark counts. Each stage is its own function, so its
    # temporaries die before the next one's are made.
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence([seed, _SIM_TAG, index])))
    frames, lins, times = (np.concatenate(c) for c in zip(
        _detect_photons(model, mapping, cfg, pairs_mean, rng, lo, hi),
        _dark_counts(cfg, rng, lo, hi)))
    if not crosstalk.is_empty and lins.size:
        frames, lins, times = inject_crosstalk(frames, lins, times, crosstalk,
                                               cfg, rng)
    return _first_hits(frames, lins, times, cfg, lo, hi)


def _detect_photons(model, mapping, cfg, pairs_mean, rng, lo, hi):
    # (frames, pixels, times) of the detected pair photons, first members
    # then second members, each in pair order
    pair_frame = _place_on_frames(rng, pairs_mean, lo, hi)
    n_pairs = pair_frame.size
    rho1, rho2 = _draw_pair_coordinates(model, mapping, n_pairs, rng)
    t_true = rng.uniform(0.0, cfg.frame_duration_ps, n_pairs)
    u = rng.random((n_pairs, 2))
    # pixels of both members of every pair; the detected photons are the
    # surviving on-sensor members, index m * n_pairs + pair for member m
    rho = np.stack([rho1, rho2])
    col = np.floor(rho[..., 0] / cfg.pixel_pitch_um + cfg.n_x / 2.0
                   + mapping.center_offset_px[0]).astype(np.int64)
    row = np.floor(rho[..., 1] / cfg.pixel_pitch_um + cfg.n_y / 2.0
                   + mapping.center_offset_px[1]).astype(np.int64)
    detected = np.flatnonzero((u.T < cfg.efficiency) & (col >= 0)
                              & (col < cfg.n_x) & (row >= 0)
                              & (row < cfg.n_y))
    pair = detected - n_pairs * (detected >= n_pairs)
    lin = row.ravel()[detected] * cfg.n_x + col.ravel()[detected] + 1
    ph_time = t_true[pair]
    if cfg.pixel_offsets_ps is not None:
        ph_time = ph_time + cfg.pixel_offsets_ps[lin - 1]
    if cfg.jitter_sigma_ps > 0:
        ph_time = ph_time + rng.normal(0.0, cfg.jitter_sigma_ps, pair.size)
    return pair_frame[pair], lin, ph_time


def _dark_counts(cfg, rng, lo, hi):
    # (frames, pixels, times) of the dark counts of frames [lo, hi), a
    # Poisson total over (pixels x frames) placed uniformly
    d_frame = _place_on_frames(rng, _dark_mean(cfg), lo, hi)
    n_dark = d_frame.size
    return (d_frame, rng.integers(1, cfg.n_pixels + 1, n_dark),
            rng.uniform(0.0, cfg.frame_duration_ps, n_dark))


def _first_hits(frames, lins, times, cfg, lo, hi) -> FrameBatch:
    # Frame gate, then the first hit per (frame, pixel) slot from one sort
    # of one code per event. The TDC bin never decreases as the time grows,
    # so the lowest code in a slot is the earliest hit's. A group spans at
    # most 2^32 frames of at most MAX_PIXELS pixels and 256 bins, so the
    # int64 code stays below 2^56.
    bins, inside = quantize_tdc(times, cfg)
    code = (((frames - lo) * cfg.n_pixels + lins - 1) * cfg.bins_per_frame
            + bins)[inside]
    code.sort()
    slot = code // cfg.bins_per_frame
    first = np.empty(slot.size, dtype=bool)
    first[:1] = True
    np.not_equal(slot[1:], slot[:-1], out=first[1:])
    slot = slot[first]
    tdc = code[first] - slot * cfg.bins_per_frame
    frame, pixel = np.divmod(slot, cfg.n_pixels)
    return FrameBatch(start_frame=lo, n_frames=hi - lo, frame_ids=frame + lo,
                      pixels=(pixel + 1).astype(np.uint16),
                      tdc=tdc.astype(np.uint8))
