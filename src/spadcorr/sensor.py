"""Monte Carlo model of a gated, time-tagging SPAD array.

Each frame is an independent exposure: a Poisson number of photon pairs is
drawn, every photon survives detection with probability eta and lands on a
pixel through the configured optical mapping, dark counts arrive uniformly in
time on every pixel, optical cross-talk can fire neighbours of any detection,
and finally each pixel time-stamps only its earliest event in the frame with
a TDC of fixed bin width. Events whose time falls outside the frame gate are
lost.

The stream is produced in fixed 65536-frame chunks, each driven by its own
counter-based RNG substream keyed on (seed, chunk index). Chunk boundaries do
not depend on the worker count, so a run is byte-identical no matter how the
chunks are scheduled.
"""

from __future__ import annotations

import dataclasses
import math
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator

import numpy as np

from .errors import ConfigError
from .optics import DoubleGaussianModel, OpticalMapping

CHUNK_FRAMES = 65536
# RNG domain-separation tags (arbitrary fixed integers)
_SIM_TAG = 0x51D
_OFFSET_TAG = 0x0FF


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
    def nearest(cls, p_horizontal: float, p_vertical: float) -> "CrosstalkSpec":
        return cls.from_dict({(1, 0): p_horizontal, (-1, 0): p_horizontal,
                              (0, 1): p_vertical, (0, -1): p_vertical})

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
class Frame:
    """Events of one exposure: (n, 2) uint16 array of (linear pixel, tdc)."""

    frame_id: int
    events: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class FrameBatch:
    """Columnar slice of the frame stream covering [start_frame, start_frame + n_frames).

    Event arrays are sorted by (frame_id, pixel); empty frames simply have no
    rows but still count toward n_frames.
    """

    start_frame: int
    n_frames: int
    frame_ids: np.ndarray   # int64, one per event
    pixels: np.ndarray      # uint16, 1-based linear index
    tdc: np.ndarray         # uint8

    @property
    def n_events(self) -> int:
        return int(self.frame_ids.size)

    def iter_frames(self) -> Iterator[Frame]:
        if self.n_events == 0:
            return
        ids, starts = np.unique(self.frame_ids, return_index=True)
        bounds = np.append(starts, self.frame_ids.size)
        for k, fid in enumerate(ids):
            sl = slice(bounds[k], bounds[k + 1])
            ev = np.stack([self.pixels[sl].astype(np.uint16),
                           self.tdc[sl].astype(np.uint16)], axis=1)
            yield Frame(frame_id=int(fid), events=ev)


def frames_to_batch(frames: list[Frame], start_frame: int,
                    n_frames: int) -> FrameBatch:
    """Pack Frame objects into one batch (events re-sorted canonically)."""
    fids, pix, tdc = [], [], []
    for fr in frames:
        if len(fr.events):
            fids.append(np.full(len(fr.events), fr.frame_id, dtype=np.int64))
            pix.append(np.asarray(fr.events[:, 0], dtype=np.uint16))
            tdc.append(np.asarray(fr.events[:, 1], dtype=np.uint8))
    if fids:
        f = np.concatenate(fids)
        p = np.concatenate(pix)
        t = np.concatenate(tdc)
        order = np.lexsort((p, f))
        f, p, t = f[order], p[order], t[order]
    else:
        f = np.empty(0, dtype=np.int64)
        p = np.empty(0, dtype=np.uint16)
        t = np.empty(0, dtype=np.uint8)
    return FrameBatch(start_frame=start_frame, n_frames=n_frames,
                      frame_ids=f, pixels=p, tdc=t)


def quantize_tdc(t_ps: float, cfg: SensorConfig):
    """Map an arrival time to its TDC bin, or None when outside the gate."""
    if t_ps < 0:
        return None
    b = int(math.floor(t_ps / cfg.tdc_bin_ps))
    return b if b < cfg.bins_per_frame else None


def sample_pair(model: DoubleGaussianModel, mapping: OpticalMapping,
                rng: np.random.Generator, n: int | None = None):
    """Draw sensor-plane landing coordinates (rho1, rho2) for photon pairs.

    Returns two (n, 2) arrays in um relative to the optical axis (shape (2,)
    each when n is None). Far field draws the momentum-space density and
    scales by lambda f / 2 pi; near field draws the position-space density
    (coordinate widths 1/(2 sigma_q+-)) and scales by the magnification.
    """
    count = 1 if n is None else int(n)
    rho1, rho2 = _draw_pair_coordinates(model, mapping, count, rng)
    if n is None:
        return rho1[0], rho2[0]
    return rho1, rho2


def _draw_pair_coordinates(model, mapping, count, rng):
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


def inject_crosstalk(pixels_lin: np.ndarray, times_ps: np.ndarray,
                     spec: CrosstalkSpec, cfg: SensorConfig,
                     rng: np.random.Generator,
                     frame_ids: np.ndarray | None = None):
    """Append cross-talk secondaries to a detection list.

    Every input detection independently fires each configured neighbour
    offset with its probability; the secondary lands at the source time plus
    a uniform delay within one TDC bin. Secondaries do not cascade.
    Off-sensor neighbours are discarded. Returns (pixels, times) or
    (pixels, times, frame_ids) with the secondaries appended.
    """
    pixels_lin = np.asarray(pixels_lin)
    times_ps = np.asarray(times_ps, dtype=float)
    add_pix = [pixels_lin]
    add_t = [times_ps]
    add_f = [frame_ids] if frame_ids is not None else None
    base0 = pixels_lin.astype(np.int64) - 1
    col = base0 % cfg.n_x
    row = base0 // cfg.n_x
    for dx, dy, p in spec.entries:
        hit = rng.random(pixels_lin.size) < p
        ncol = col[hit] + dx
        nrow = row[hit] + dy
        ok = (ncol >= 0) & (ncol < cfg.n_x) & (nrow >= 0) & (nrow < cfg.n_y)
        delay = rng.uniform(0.0, cfg.tdc_bin_ps, int(hit.sum()))
        add_pix.append((nrow[ok] * cfg.n_x + ncol[ok] + 1).astype(pixels_lin.dtype))
        add_t.append(times_ps[hit][ok] + delay[ok])
        if add_f is not None:
            add_f.append(frame_ids[hit][ok])
    pix = np.concatenate(add_pix)
    t = np.concatenate(add_t)
    if add_f is None:
        return pix, t
    return pix, t, np.concatenate(add_f)


def simulate_frames(model: DoubleGaussianModel, mapping: OpticalMapping,
                    cfg: SensorConfig, n_frames: int,
                    pairs_per_frame_mean: float,
                    crosstalk: CrosstalkSpec | None = None,
                    seed: int = 0, workers: int = 1
                    ) -> Iterator[FrameBatch]:
    """Generate the frame stream as a sequence of FrameBatch chunks.

    Deterministic for a given seed: each 65536-frame chunk uses its own
    counter-keyed substream and chunk boundaries are fixed, so worker count
    and scheduling cannot change the output.
    """
    if n_frames < 0:
        raise ConfigError("n_frames must be nonnegative")
    if pairs_per_frame_mean < 0:
        raise ConfigError("pair rate must be nonnegative")
    if mapping.mode not in ("far", "near"):
        raise ConfigError("simulation needs a near or far mapping")
    crosstalk = crosstalk or CrosstalkSpec.none()
    spans = [(ci, lo, min(lo + CHUNK_FRAMES, n_frames))
             for ci, lo in enumerate(range(0, n_frames, CHUNK_FRAMES))]

    def run(span):
        ci, lo, hi = span
        return _simulate_chunk(model, mapping, cfg, crosstalk,
                               pairs_per_frame_mean, seed, ci, lo, hi)

    if workers <= 1 or len(spans) <= 1:
        for span in spans:
            yield run(span)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            yield from pool.map(run, spans)


def _simulate_chunk(model, mapping, cfg, crosstalk, pairs_mean,
                    seed, chunk_index, lo, hi) -> FrameBatch:
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence([seed, _SIM_TAG, chunk_index])))
    n = hi - lo
    fd = cfg.frame_duration_ps

    # photon pairs
    if pairs_mean > 0:
        counts = rng.poisson(pairs_mean, n)
        total = int(counts.sum())
    else:
        counts = None
        total = 0
    if total:
        pair_frame = np.repeat(np.arange(lo, hi, dtype=np.int64), counts)
        rho1, rho2 = _draw_pair_coordinates(model, mapping, total, rng)
        t_true = rng.uniform(0.0, fd, total)
        survive = rng.random((total, 2)) < cfg.efficiency
        ph_frame = np.concatenate([pair_frame[survive[:, 0]],
                                   pair_frame[survive[:, 1]]])
        ph_rho = np.concatenate([rho1[survive[:, 0]], rho2[survive[:, 1]]])
        ph_time = np.concatenate([t_true[survive[:, 0]], t_true[survive[:, 1]]])
        col = np.floor(ph_rho[:, 0] / cfg.pixel_pitch_um + cfg.n_x / 2.0
                       + mapping.center_offset_px[0]).astype(np.int64)
        row = np.floor(ph_rho[:, 1] / cfg.pixel_pitch_um + cfg.n_y / 2.0
                       + mapping.center_offset_px[1]).astype(np.int64)
        on = (col >= 0) & (col < cfg.n_x) & (row >= 0) & (row < cfg.n_y)
        lin = (row[on] * cfg.n_x + col[on] + 1)
        ph_frame = ph_frame[on]
        ph_time = ph_time[on]
        if cfg.pixel_offsets_ps is not None:
            ph_time = ph_time + cfg.pixel_offsets_ps[lin - 1]
        if cfg.jitter_sigma_ps > 0:
            ph_time = ph_time + rng.normal(0.0, cfg.jitter_sigma_ps, lin.size)
    else:
        ph_frame = np.empty(0, dtype=np.int64)
        lin = np.empty(0, dtype=np.int64)
        ph_time = np.empty(0, dtype=float)

    # dark counts: Poisson total over (pixels x frames), placed uniformly
    lam = cfg.dark_rate_hz * fd * 1e-12 * cfg.n_pixels * n
    n_dark = int(rng.poisson(lam)) if lam > 0 else 0
    if n_dark:
        d_frame = rng.integers(lo, hi, n_dark)
        d_lin = rng.integers(1, cfg.n_pixels + 1, n_dark)
        d_time = rng.uniform(0.0, fd, n_dark)
        frames = np.concatenate([ph_frame, d_frame])
        lins = np.concatenate([lin, d_lin])
        times = np.concatenate([ph_time, d_time])
    else:
        frames, lins, times = ph_frame, lin, ph_time

    if not crosstalk.is_empty and lins.size:
        lins, times, frames = inject_crosstalk(lins, times, crosstalk, cfg,
                                               rng, frame_ids=frames)

    # frame gate, TDC quantization, first hit per (frame, pixel)
    keep = (times >= 0.0) & (times < fd)
    frames, lins, times = frames[keep], lins[keep], times[keep]
    bins = np.floor(times / cfg.tdc_bin_ps).astype(np.int64)
    ok = bins < cfg.bins_per_frame
    frames, lins, bins, times = frames[ok], lins[ok], bins[ok], times[ok]
    order = np.lexsort((times, lins, frames))
    frames, lins, bins = frames[order], lins[order], bins[order]
    first = np.ones(frames.size, dtype=bool)
    if frames.size > 1:
        first[1:] = (frames[1:] != frames[:-1]) | (lins[1:] != lins[:-1])
    return FrameBatch(start_frame=lo, n_frames=n,
                      frame_ids=frames[first],
                      pixels=lins[first].astype(np.uint16),
                      tdc=bins[first].astype(np.uint8))
