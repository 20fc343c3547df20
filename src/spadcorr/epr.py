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
from .fitting import (
    fit_gaussian_1d,
    fit_gaussian_1d_columns,
    fit_gaussian_2d,
)
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


def build_joint_table(corr: CorrectedG2, mapping: OpticalMapping,
                      pixel_pitch_um: float, axis: str = "x") -> JointTable:
    """Project a corrected tensor onto one axis and attach coordinates."""
    if axis not in ("x", "y"):
        raise ConfigError(f"axis must be x or y, got {axis!r}")
    g2x, g2y = project_axes(corr.values, corr.n_x, corr.n_y)
    proj = g2x if axis == "x" else g2y
    n = corr.n_x if axis == "x" else corr.n_y
    off = mapping.center_offset_px[0 if axis == "x" else 1]
    coords = map_sensor_to_object(
        mapping, pixel_center_coords(n, off, pixel_pitch_um))
    floored = np.maximum(proj, 0.0)
    n_floored = int(np.count_nonzero(proj < 0))
    idx = np.arange(n)
    if "neighbor_masked" in corr.flags and corr.mask_radius is not None:
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


def inferred_variance_numerical(table: JointTable,
                                min_column_fraction: float = 0.01) -> float:
    """Marginal-weighted conditional variance, no model assumed."""
    cond, marginal, retained = conditionals_and_marginal(
        table, min_column_fraction)
    a = table.coords[:, None]
    mean = np.sum(cond * a, axis=0)
    var = np.sum(cond * (a - mean[None, :]) ** 2, axis=0)
    return float(np.sum(marginal[retained] * var[retained]))


def inferred_variance_gauss1d(table: JointTable,
                              min_column_fraction: float = 0.01) -> float:
    """Marginal-weighted variance of per-column Gaussian fits.

    All retained columns are fitted in one stacked run. Columns with fewer
    than 5 unmasked points, flat columns and fits that do not converge are
    dropped and the weights renormalized; if every column fails the failure
    propagates.
    """
    _, marginal, retained = conditionals_and_marginal(
        table, min_column_fraction)
    cols = np.flatnonzero(retained)
    fits = fit_gaussian_1d_columns(table.coords, table.values[:, cols],
                                   ~table.masked[:, cols])
    used = [(marginal[b], fit.params["sigma"] ** 2)
            for b, fit in zip(cols, fits) if fit is not None and fit.converged]
    if not used:
        raise NotConverged("no column produced a usable fit")
    w, variances = np.array(used).T
    return float(np.sum(w * variances) / np.sum(w))


def inferred_variance_gauss2d(table: JointTable) -> float:
    """Rotated-frame 2D Gaussian fit, widths combined analytically."""
    fit = fit_gaussian_2d(table.values, table.coords, table.coords,
                          mask=table.masked)
    if not fit.converged:
        raise NotConverged("2D fit did not converge")
    return inferred_variance_from_widths(fit.params["sigma_plus"],
                                         fit.params["sigma_minus"])


def inferred_variance_peaks(corr: CorrectedG2, mapping: OpticalMapping,
                            pixel_pitch_um: float, axis: str = "x") -> float:
    """Width of the summed correlation peak, times sqrt(2).

    Near-field pairs pile up in the difference coordinate and far-field
    pairs in the sum coordinate; the profile is expressed in the rotated
    coordinate (a1 -/+ a2)/sqrt(2) so the inferred width is sqrt(2) times
    the fitted sigma. Each sum or difference bin collects a different
    number of pixel pairs on a finite array (n - |centered index|), which
    shapes the profile independently of the physics, so the profile is
    divided by that pair acceptance before fitting. Near-field difference
    bins inside the neighbour mask are excluded from the fit. The profile
    is read off the axis projection (peak_profiles); it is the sum or
    difference map summed over the other axis, up to rounding.
    """
    if axis not in ("x", "y"):
        raise ConfigError(f"axis must be x or y, got {axis!r}")
    if mapping.mode not in ("near", "far"):
        raise ConfigError("peak widths need a near or far mapping")
    g2x, g2y = project_axes(corr.values, corr.n_x, corr.n_y)
    sum_profile, diff_profile = peak_profiles(g2x if axis == "x" else g2y)
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
    if not use_sum and "neighbor_masked" in corr.flags \
            and corr.mask_radius is not None:
        keep &= np.abs(pix) > corr.mask_radius
    fit = fit_gaussian_1d(u[keep],
                          np.maximum(profile[keep], 0.0) / acceptance[keep])
    if not fit.converged:
        raise NotConverged("peak profile fit did not converge")
    sigma = abs(fit.params["sigma"])
    return 2.0 * sigma * sigma


def v_min(d2_pos_um2: float, d2_mom_per_mm2: float) -> float:
    """Dimensionless variance product; positions enter in mm."""
    return d2_pos_um2 * 1e-6 * d2_mom_per_mm2


@dataclass(eq=False)
class EprReport:
    """Per-method inferred widths and variance products for both axes."""

    methods: dict
    meta: dict = field(default_factory=dict)
    expected: dict = None

    def as_dict(self) -> dict:
        out = {"methods": self.methods, "meta": self.meta}
        if self.expected is not None:
            out["expected"] = self.expected
        return out

    def to_json(self, indent=None) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=indent)

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
    tables = {}
    for axis in ("x", "y"):
        tables[axis] = (
            build_joint_table(corr_near, mapping_near, pixel_pitch_um, axis),
            build_joint_table(corr_far, mapping_far, pixel_pitch_um, axis))

    def run(name, axis):
        t_near, t_far = tables[axis]
        if name == "numerical":
            return (inferred_variance_numerical(t_near, min_column_fraction),
                    inferred_variance_numerical(t_far, min_column_fraction))
        if name == "gauss1d":
            return (inferred_variance_gauss1d(t_near, min_column_fraction),
                    inferred_variance_gauss1d(t_far, min_column_fraction))
        if name == "gauss2d":
            return (inferred_variance_gauss2d(t_near),
                    inferred_variance_gauss2d(t_far))
        return (inferred_variance_peaks(corr_near, mapping_near,
                                        pixel_pitch_um, axis),
                inferred_variance_peaks(corr_far, mapping_far,
                                        pixel_pitch_um, axis))

    methods = {}
    for name in METHODS:
        d2 = {axis: run(name, axis) for axis in ("x", "y")}
        vx = v_min(d2["x"][0], d2["x"][1])
        vy = v_min(d2["y"][0], d2["y"][1])
        methods[name] = {
            "delta_x_um": math.sqrt(d2["x"][0]),
            "delta_y_um": math.sqrt(d2["y"][0]),
            "delta_qx_per_mm": math.sqrt(d2["x"][1]),
            "delta_qy_per_mm": math.sqrt(d2["y"][1]),
            "v_x": vx, "v_y": vy,
            "violated_x": violates(vx), "violated_y": violates(vy)}

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
            axis: [tables[axis][0].negative_floored,
                   tables[axis][1].negative_floored]
            for axis in ("x", "y")}}
    return EprReport(methods=methods, meta=meta, expected=expected)
