"""Inferred-variance evaluation of pixel-pair tensors.

Everything here works on single-axis joint tables G2(a1, a2) obtained by
projecting a corrected tensor, with physical object-space coordinates on
both axes: positions in um for near-field data, transverse momenta in 1/mm
for far-field data. The figure of merit per axis is

    V = delta^2(x1|x2) [mm^2] * delta^2(q1|q2) [1/mm^2]

and values strictly below 1/4 certify that the two photons cannot be
described by independent states.

Four estimates of the inferred variance are provided, from least to most
model-laden: the numerical conditional-variance chain, per-column Gaussian
fits, a single rotated-frame 2D Gaussian fit, and widths of the summed
correlation peaks.

Every estimator reads only the two n x n axis projections of a tensor. So
evaluate_epr projects each tensor once (two project_axes calls), builds the
four joint tables and the four peak profiles from those projections, and
runs each fitted estimator as one stacked solve over its four problems:
every retained column of all four tables for gauss1d, the four tables for
gauss2d and the four profiles for peaks (on a non-square sensor the x and
y problems differ in length and each estimator takes one solve per axis).
Each estimator takes the list of its problems and returns one variance per
problem, in order, and one error per problem: None, or the DegenerateInput
or NotConverged that names why the problem failed. A failed problem's
variance is NaN. The report keeps every result; per method and axis it
records a status, "ok" or the type and message of the axis' first failure,
near before far. Data errors (AllColumnsEmpty) and configuration errors
still raise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .correlator import CorrectedG2, peak_profiles, project_axes
from .errors import (
    AllColumnsEmpty,
    ConfigError,
    DegenerateInput,
    NotConverged,
)
from .fitting import _GAUSS1D, _GAUSS2D, _fit_stack
from .optics import OpticalMapping, map_sensor_to_object

VIOLATION_BOUND = 0.25

METHODS = ("numerical", "gauss1d", "gauss2d", "peaks")


def violates(v: float) -> bool:
    """Strict test; the separability bound itself does not violate."""
    return v < VIOLATION_BOUND


def inferred_variance_from_widths(sigma_plus: float,
                                  sigma_minus: float) -> float:
    """delta^2(a|b) for a double Gaussian with rotated-frame widths."""
    sp2 = sigma_plus * sigma_plus
    sm2 = sigma_minus * sigma_minus
    if sp2 + sm2 <= 0:
        raise DegenerateInput("both widths vanish")
    return 2.0 * sp2 * sm2 / (sp2 + sm2)


@dataclass(eq=False)
class JointTable:
    """Single-axis joint distribution with physical coordinates.

    values are floored at zero (negative_floored counts how many cells the
    floor touched); masked marks cells within the neighbour-mask band, which
    every estimator must skip.
    """

    values: np.ndarray
    coords: np.ndarray
    masked: np.ndarray
    axis: str
    domain: str
    negative_floored: int = 0


def pixel_center_coords(n: int, offset_px: float,
                        pixel_pitch_um: float) -> np.ndarray:
    """Sensor-plane coordinate of each pixel center along one axis, um."""
    return (np.arange(n) + 0.5 - n / 2.0 - offset_px) * pixel_pitch_um


def build_joint_table(proj, corr: CorrectedG2, mapping: OpticalMapping,
                      pixel_pitch_um: float, axis: str) -> JointTable:
    """Attach coordinates and the mask band to corr's axis projection proj."""
    n = corr.n_x if axis == "x" else corr.n_y
    off = mapping.center_offset_px[0 if axis == "x" else 1]
    coords = map_sensor_to_object(
        mapping, pixel_center_coords(n, off, pixel_pitch_um))
    floored = np.maximum(proj, 0.0)
    n_floored = int(np.count_nonzero(proj < 0))
    idx = np.arange(n)
    if corr.mask_radius is not None:
        masked = np.abs(idx[:, None] - idx[None, :]) <= corr.mask_radius
        masked &= idx[:, None] != idx[None, :]
    else:
        masked = np.zeros((n, n), dtype=bool)
    domain = "momentum_per_mm" if mapping.mode == "far" else "position_um"
    return JointTable(values=floored, coords=np.asarray(coords, float),
                      masked=masked, axis=axis, domain=domain,
                      negative_floored=n_floored)


def conditionals_and_marginal(table: JointTable,
                              min_column_fraction: float = 0.01):
    """Column-normalized conditionals and the retained-column marginal.

    Columns whose unmasked mass falls below min_column_fraction of the
    strongest column are dropped; the marginal is renormalized over what
    remains. Returns (conditionals, marginal, retained) where dropped
    columns are zero everywhere.
    """
    vals = np.where(table.masked, 0.0, table.values)
    mass = vals.sum(axis=0)
    top = float(mass.max())
    if top <= 0:
        raise AllColumnsEmpty("table has no unmasked mass")
    retained = mass >= min_column_fraction * top
    retained &= mass > 0
    if not np.any(retained):
        raise AllColumnsEmpty("no column passed the retention threshold")
    cond = np.zeros_like(vals)
    cond[:, retained] = vals[:, retained] / mass[retained]
    marginal = np.where(retained, mass, 0.0)
    marginal /= marginal.sum()
    return cond, marginal, retained


def inferred_variance_numerical(tables, conditionals) -> tuple:
    """Marginal-weighted conditional variance of each table, no model
    assumed; conditionals are the tables' conditionals_and_marginal. It
    never fails, so every error is None."""
    out = []
    for table, (cond, marginal, retained) in zip(tables, conditionals):
        a = table.coords[:, None]
        mean = np.sum(cond * a, axis=0)
        var = np.sum(cond * (a - mean[None, :]) ** 2, axis=0)
        out.append(float(np.sum(marginal[retained] * var[retained])))
    return out, [None] * len(out)


def inferred_variance_gauss1d(tables, conditionals) -> tuple:
    """Marginal-weighted variance of per-column Gaussian fits of each table.

    Every retained column of every table is fitted in one stacked run,
    masked cells NaN. Columns with fewer than 5 unmasked points, flat
    columns and fits that do not converge are dropped and the weights
    renormalized; a table whose every column fails gets NaN and a
    NotConverged error.
    """
    cols = [np.flatnonzero(retained) for _, _, retained in conditionals]
    fits = _fit_stack(_GAUSS1D, [
        ((t.coords,), np.where(t.masked[:, c], np.nan, t.values[:, c]).T)
        for t, c in zip(tables, cols)])
    ends = np.cumsum([c.size for c in cols])[:-1]
    out, errors = [], []
    for (_, marginal, _), c, ok, sigma in zip(
            conditionals, cols, np.split(fits.converged, ends),
            np.split(fits.params[:, 2], ends)):
        if not ok.any():
            out.append(math.nan)
            errors.append(NotConverged("no column produced a usable fit"))
            continue
        w = marginal[c[ok]]
        # libm's pow (np.float_power), whose rounding the pinned reports
        # carry: sigma * sigma differs in the last bit for ~1 width in 1200
        variances = np.float_power(sigma[ok], 2.0)
        out.append(float(np.sum(w * variances) / np.sum(w)))
        errors.append(None)
    return out, errors


def inferred_variance_gauss2d(tables) -> tuple:
    """Rotated-frame 2D Gaussian fit of each table, in one stacked run,
    widths combined analytically; a failed fit gets NaN."""
    fits = _fit_stack(_GAUSS2D, [
        ((t.coords[:, None], t.coords),
         np.where(t.masked, np.nan, t.values)[None]) for t in tables])
    errors = fits.errors("2D fit")
    return [math.nan if err else inferred_variance_from_widths(sp, sm)
            for (sp, sm), err in zip(fits.params[:, 3:5].tolist(),
                                     errors)], errors


def _peak_profile(proj, corr, mapping, pixel_pitch_um, axis):
    # (coordinate, acceptance-corrected profile) that inferred_variance_peaks
    # fits, read off the axis projection proj; bins it leaves out are NaN,
    # so every profile of an n-pixel axis has 2n - 1 points
    sum_profile, diff_profile = peak_profiles(proj)
    use_sum = mapping.mode == "far"
    profile = sum_profile if use_sum else diff_profile
    n = corr.n_x if axis == "x" else corr.n_y
    pix = np.arange(profile.size) - (0 if use_sum else n - 1)
    acceptance = n - np.abs(np.arange(profile.size) - (n - 1))
    # sum index s counts (c1 + c2) of 0-based columns; convert to a sensor
    # coordinate so the center offset lands where the optical axis does
    if use_sum:
        off = mapping.center_offset_px[0 if axis == "x" else 1]
        sensor = (pix + 1.0 - n - 2.0 * off) * pixel_pitch_um
    else:
        sensor = pix * pixel_pitch_um
    u = np.asarray(map_sensor_to_object(mapping, sensor), float) / math.sqrt(2.0)
    keep = np.ones(profile.size, dtype=bool)
    if not use_sum and corr.mask_radius is not None:
        keep &= np.abs(pix) > corr.mask_radius
    return u, np.where(keep, np.maximum(profile, 0.0) / acceptance, np.nan)


def inferred_variance_peaks(profiles) -> tuple:
    """Width of each summed correlation peak, times sqrt(2).

    Near-field pairs pile up in the difference coordinate and far-field
    pairs in the sum coordinate; the profile is expressed in the rotated
    coordinate (a1 -/+ a2)/sqrt(2) so the inferred width is sqrt(2) times
    the fitted sigma. Each sum or difference bin collects a different
    number of pixel pairs on a finite array (n - |centered index|), which
    shapes the profile independently of the physics, so the profile is
    divided by that pair acceptance before fitting. Near-field difference
    bins inside the neighbour mask are excluded from the fit. The profile
    is read off the axis projection (peak_profiles); it is the sum or
    difference map summed over the other axis, up to rounding. Each of
    profiles is one such (coordinate, profile) pair, all fitted in one
    stacked run; a failed fit gets NaN.
    """
    fits = _fit_stack(_GAUSS1D, [((u,), profile[None])
                                 for u, profile in profiles])
    sigma = np.where(fits.converged, fits.params[:, 2], np.nan)
    return (2.0 * sigma * sigma).tolist(), fits.errors("peak profile fit")


def v_min(d2_pos_um2: float, d2_mom_per_mm2: float) -> float:
    """Dimensionless variance product; positions enter in mm."""
    return d2_pos_um2 * 1e-6 * d2_mom_per_mm2


@dataclass(eq=False)
class EprReport:
    """Per-method inferred widths and variance products for both axes.

    Each method row holds status_x and status_y: "ok", or the type and
    message of that axis' first failure, near before far. A failed
    problem's width is NaN, so is its axis' V, and violated is False there.
    """

    methods: dict
    meta: dict = field(default_factory=dict)
    expected: dict = None

    def failures(self) -> list:
        """(method, axis, status) of every result that is not ok."""
        return [(name, axis, m[f"status_{axis}"])
                for name, m in self.methods.items() for axis in "xy"
                if m[f"status_{axis}"] != "ok"]

    def as_dict(self) -> dict:
        out = {"methods": self.methods, "meta": self.meta}
        if self.expected is not None:
            out["expected"] = self.expected
        return out

    def to_json(self, indent=None) -> str:
        """The report as JSON; a failed result's NaN is written as null."""
        out = self.as_dict()
        out["methods"] = {
            name: {k: None if isinstance(v, float) and math.isnan(v) else v
                   for k, v in m.items()}
            for name, m in self.methods.items()}
        return json.dumps(out, sort_keys=True, indent=indent)

    def to_text(self) -> str:
        cols = ("dx[um]", "dy[um]", "dqx[1/mm]", "dqy[1/mm]", "Vx", "Vy")
        keys = ("delta_x_um", "delta_y_um", "delta_qx_per_mm",
                "delta_qy_per_mm", "v_x", "v_y")
        rows = [("method",) + cols]
        for name in METHODS:
            if name not in self.methods:
                continue
            m = self.methods[name]
            cells = [name]
            for key in keys:
                val = m[key]
                mark = ""
                if key == "v_x" and m.get("violated_x"):
                    mark = "*"
                if key == "v_y" and m.get("violated_y"):
                    mark = "*"
                cells.append(f"{val:.4g}{mark}")
            rows.append(tuple(cells))
        if self.expected is not None:
            e = self.expected
            rows.append(("expected",) + tuple(
                f"{e[k]:.4g}" for k in keys))
        widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
        lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                 for r in rows]
        lines.append("* variance product below 0.25")
        lines.extend(f"{name} {axis} failed: {status}"
                     for name, axis, status in self.failures())
        return "\n".join(lines)


def evaluate_epr(corr_near: CorrectedG2, corr_far: CorrectedG2,
                 mapping_near: OpticalMapping, mapping_far: OpticalMapping,
                 pixel_pitch_um: float = 44.67,
                 min_column_fraction: float = 0.01,
                 expected: dict = None) -> EprReport:
    """Run every estimator on a near-field / far-field tensor pair.

    expected, when given, holds the four target widths keyed as the
    method rows (config.target_widths); the report adds their v_x, v_y.
    """
    if mapping_near.mode != "near" or mapping_far.mode != "far":
        raise ConfigError("tensors must come with near and far mappings")
    for corr, want in ((corr_near, "near"), (corr_far, "far")):
        if corr.mapping_mode not in (want, "unspecified"):
            raise ConfigError(
                f"{want}-field slot got a {corr.mapping_mode}-field tensor")
    arms = ((corr_near, mapping_near), (corr_far, mapping_far))
    projections = [project_axes(corr.values, corr.n_x, corr.n_y)
                   for corr, _ in arms]
    # the four (axis, arm) problems in the order their failures are
    # reported: x before y, near before far
    problems = [(axis, corr, mapping, proj[i])
                for i, axis in enumerate("xy")
                for (corr, mapping), proj in zip(arms, projections)]
    tables = [build_joint_table(proj, corr, mapping, pixel_pitch_um, axis)
              for axis, corr, mapping, proj in problems]
    conditionals = [conditionals_and_marginal(t, min_column_fraction)
                    for t in tables]
    estimates = {
        "numerical": inferred_variance_numerical(tables, conditionals),
        "gauss1d": inferred_variance_gauss1d(tables, conditionals),
        "gauss2d": inferred_variance_gauss2d(tables),
        "peaks": inferred_variance_peaks([
            _peak_profile(proj, corr, mapping, pixel_pitch_um, axis)
            for axis, corr, mapping, proj in problems])}

    methods = {}
    for name in METHODS:
        d2, errors = estimates[name]
        row = methods[name] = {}
        for i, axis in enumerate("xy"):
            near, far = d2[2 * i:2 * i + 2]
            err = next((e for e in errors[2 * i:2 * i + 2] if e), None)
            v = v_min(near, far)
            row[f"delta_{axis}_um"] = math.sqrt(near)
            row[f"delta_q{axis}_per_mm"] = math.sqrt(far)
            row[f"v_{axis}"] = v
            row[f"violated_{axis}"] = err is None and violates(v)
            row[f"status_{axis}"] = (
                "ok" if err is None else f"{type(err).__name__}: {err}")

    if expected is not None:
        expected = {**expected, **{
            f"v_{axis}": v_min(expected[f"delta_{axis}_um"] ** 2,
                               expected[f"delta_q{axis}_per_mm"] ** 2)
            for axis in ("x", "y")}}
    meta = {
        "pixel_pitch_um": pixel_pitch_um,
        "min_column_fraction": min_column_fraction,
        "n_frames_near": corr_near.n_frames,
        "n_frames_far": corr_far.n_frames,
        "flags_near": list(corr_near.flags),
        "flags_far": list(corr_far.flags),
        "mask_radius_near": corr_near.mask_radius,
        "mask_radius_far": corr_far.mask_radius,
        "negative_floored": {
            axis: [tables[2 * i].negative_floored,
                   tables[2 * i + 1].negative_floored]
            for i, axis in enumerate("xy")}}
    return EprReport(methods=methods, meta=meta, expected=expected)
