import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import (
    axis_table,
    coordinate_widths,
    peak_variance,
    sum_diff_route_profiles,
    table_variance,
)
from spadcorr import correlator, epr, fitting
from spadcorr.config import (
    build_crosstalk,
    build_mapping,
    build_model,
    build_sensor,
    defaults,
    parse_config,
    target_widths,
)
from spadcorr.correlator import (
    CorrectedG2,
    mask_neighbors,
    peak_profiles,
    project_axes,
)
from spadcorr.epr import (
    EprReport,
    JointTable,
    conditionals_and_marginal,
    evaluate_epr,
    inferred_variance_from_widths,
    pixel_center_coords,
    v_min,
    violates,
)
from spadcorr.errors import (
    AllColumnsEmpty,
    ConfigError,
    DegenerateInput,
    NotConverged,
    SpadError,
)
from spadcorr.fitting import _GAUSS1D, _fit_stack
from spadcorr.optics import OpticalMapping
from spadcorr.pipeline import (
    characterize_crosstalk,
    correct_chain,
    simulate_accumulator,
)

PITCH = 44.67


def blank_corrected(values, flags=("raw",), mapping_mode="unspecified",
                    **kw):
    n_pix = values.shape[0]
    n = int(round(math.sqrt(n_pix)))
    fields = dict(values=values, g1=np.zeros(n_pix), flags=flags, n_x=n,
                  n_y=n, bins_per_frame=255, window=10, shift=20,
                  n_frames=1_000_000, mapping_mode=mapping_mode)
    fields.update(kw)
    return CorrectedG2(**fields)


def table_from(values, coords, masked=None):
    values = np.asarray(values, float)
    if masked is None:
        masked = np.zeros_like(values, dtype=bool)
    return JointTable(values=values, coords=np.asarray(coords, float),
                      masked=masked, axis="x", domain="position_um")


def gaussian_tensor(n, sigma_plus, sigma_minus, center=None):
    """Separable per-axis joint weight with rotated-frame widths, pixel units."""
    c = (n - 1) / 2.0 if center is None else center
    i = np.arange(n, dtype=float)
    plus = (i[:, None] + i[None, :]) - 2 * c
    minus = i[:, None] - i[None, :]
    return np.exp(-plus ** 2 / (4.0 * sigma_plus ** 2)
                  - minus ** 2 / (4.0 * sigma_minus ** 2))


class TestViolationBound:
    def test_strict_inequality(self):
        assert violates(0.2499)
        assert not violates(0.25)
        assert not violates(0.2501)

    def test_v_min_reference_values(self):
        assert v_min(37.3 ** 2, 4.0 ** 2) == pytest.approx(0.022261, abs=5e-7)
        assert violates(v_min(37.3 ** 2, 4.0 ** 2))
        assert v_min(37.3 ** 2, 3.4 ** 2) == pytest.approx(0.016083, abs=5e-7)
        assert violates(v_min(37.3 ** 2, 3.4 ** 2))

    def test_v_min_boundary_is_exact(self):
        v = v_min(125.0 ** 2, 4.0 ** 2)
        assert v == 0.25
        assert not violates(v)


class TestInferredVarianceFromWidths:
    def test_equal_widths(self):
        assert inferred_variance_from_widths(3.0, 3.0) == pytest.approx(9.0)

    def test_reference_pair(self):
        assert inferred_variance_from_widths(3.0, 4.0) == pytest.approx(11.52)

    def test_extreme_ratio_saturates_at_twice_min(self):
        got = inferred_variance_from_widths(1.0, 1e6)
        assert got == pytest.approx(2.0, rel=1e-5)

    def test_symmetric(self):
        assert inferred_variance_from_widths(2.0, 7.0) == \
            inferred_variance_from_widths(7.0, 2.0)

    @given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
    def test_bounded_by_twice_smaller_width(self, a, b):
        got = inferred_variance_from_widths(a, b)
        assert got <= 2.0 * min(a, b) ** 2 * (1 + 1e-12)
        assert got > 0

    def test_degenerate(self):
        with pytest.raises(DegenerateInput):
            inferred_variance_from_widths(0.0, 0.0)


class TestPixelCenterCoords:
    def test_centered_grid(self):
        c = pixel_center_coords(32, 0.0, PITCH)
        assert c[0] == pytest.approx(-15.5 * PITCH)
        assert c[-1] == pytest.approx(15.5 * PITCH)
        np.testing.assert_allclose(np.diff(c), PITCH)
        np.testing.assert_allclose(c, -c[::-1])

    def test_offset_shifts(self):
        base = pixel_center_coords(32, 0.0, PITCH)
        moved = pixel_center_coords(32, 2.0, PITCH)
        np.testing.assert_allclose(moved, base - 2.0 * PITCH)


class TestConditionals:
    def test_point_mass_columns(self):
        vals = np.eye(5) * 3.0
        cond, marginal, retained = conditionals_and_marginal(
            table_from(vals, np.arange(5)))
        assert np.all(retained)
        np.testing.assert_allclose(cond, np.eye(5))
        np.testing.assert_allclose(marginal, np.full(5, 0.2))
        assert table_variance("numerical",
                              table_from(vals, np.arange(5))) == 0.0

    def test_two_point_variance(self):
        vals = np.ones((2, 2))
        table = table_from(vals, [4.0, 6.0])
        assert table_variance("numerical", table) == pytest.approx(1.0)

    def test_three_by_three_oracle(self):
        vals = np.array([[2.0, 0.0, 1.0],
                         [1.0, 3.0, 0.0],
                         [0.0, 1.0, 4.0]])
        table = table_from(vals, [-1.0, 0.0, 1.0])
        assert table_variance("numerical", table) == pytest.approx(
            277.0 / 720.0, rel=1e-12)

    def test_retention_threshold(self):
        vals = np.ones((4, 4))
        vals[:, 2] = 0.001     # below 1% of the strongest column
        cond, marginal, retained = conditionals_and_marginal(
            table_from(vals, np.arange(4)))
        assert list(retained) == [True, True, False, True]
        assert marginal[2] == 0.0
        assert marginal.sum() == pytest.approx(1.0)
        assert np.all(cond[:, 2] == 0.0)

    def test_empty_table_rejected(self):
        with pytest.raises(AllColumnsEmpty):
            conditionals_and_marginal(table_from(np.zeros((3, 3)),
                                                 np.arange(3)))
        vals = np.ones((3, 3))
        with pytest.raises(AllColumnsEmpty):
            conditionals_and_marginal(
                table_from(vals, np.arange(3),
                           masked=np.ones((3, 3), dtype=bool)))

    def test_masked_cells_are_invisible(self):
        vals = np.ones((3, 3))
        vals[0, 0] = 100.0
        masked = np.zeros((3, 3), dtype=bool)
        masked[0, 0] = True
        cond, _, _ = conditionals_and_marginal(
            table_from(vals, np.arange(3), masked=masked))
        np.testing.assert_allclose(cond[:, 0], [0.0, 0.5, 0.5])


class TestNumericalEstimator:
    def test_scale_invariance(self):
        rng = np.random.default_rng(61)
        vals = rng.random((9, 9))
        coords = np.linspace(-4, 4, 9)
        a = table_variance("numerical", table_from(vals, coords))
        b = table_variance("numerical", table_from(7.0 * vals, coords))
        assert a == pytest.approx(b, rel=1e-12)

    def test_coordinate_rescale(self):
        rng = np.random.default_rng(62)
        vals = rng.random((9, 9))
        coords = np.linspace(-4, 4, 9)
        a = table_variance("numerical", table_from(vals, coords))
        b = table_variance("numerical", table_from(vals, 3.0 * coords))
        assert b == pytest.approx(9.0 * a, rel=1e-12)


class TestGaussianEstimators:
    def setup_method(self):
        self.sp, self.sm = 9.0, 2.5
        n = 41
        self.coords = np.arange(n) - (n - 1) / 2.0
        self.vals = gaussian_tensor(n, self.sp, self.sm)
        self.truth = inferred_variance_from_widths(self.sp, self.sm)

    def test_gauss2d_recovers_analytic_value(self):
        got = table_variance("gauss2d", table_from(self.vals, self.coords))
        assert got == pytest.approx(self.truth, rel=1e-6)

    def test_gauss1d_recovers_analytic_value(self):
        got = table_variance("gauss1d", table_from(self.vals, self.coords))
        assert got == pytest.approx(self.truth, rel=1e-4)

    def test_numerical_close_on_wide_grid(self):
        got = table_variance("numerical", table_from(self.vals, self.coords))
        assert got == pytest.approx(self.truth, rel=0.05)

    def test_gauss1d_drops_columns_that_do_not_converge(self):
        vals = self.vals.copy()
        rng = np.random.default_rng(0)
        vals[:, 30] = 0.05 + rng.normal(0.0, 0.01, vals.shape[0])
        vals[17, 30] = 2.5          # one hot cell: the width shrinks forever
        fits = _fit_stack(_GAUSS1D, [((self.coords,), vals.T)])
        assert not fits.converged[30]
        assert np.delete(fits.converged, 30).all()
        masked = np.zeros(vals.shape, dtype=bool)
        masked[:, 30] = True
        got = table_variance("gauss1d", table_from(vals, self.coords))
        want = table_variance(
            "gauss1d", table_from(vals, self.coords, masked=masked))
        assert got == pytest.approx(want, rel=1e-12)

    def test_gauss1d_requires_a_fittable_column(self):
        with pytest.raises(NotConverged):
            table_variance("gauss1d", table_from(np.ones((8, 8)),
                                                 np.arange(8)))


class TestBuildJointTable:
    def test_negative_flooring_and_domain(self, near_mapping, far_mapping):
        values = np.zeros((1024, 1024))
        values[3, 5] = -2.0
        values[5, 3] = 4.0
        corr = blank_corrected(values, mapping_mode="near")
        table = axis_table(corr, near_mapping, "x")
        assert table.domain == "position_um"
        assert table.negative_floored == 1
        assert np.all(table.values >= 0.0)
        table_far = axis_table(
            blank_corrected(values.copy(), mapping_mode="far"), far_mapping,
            "x")
        assert table_far.domain == "momentum_per_mm"

    def test_coordinates_follow_mapping(self, near_mapping):
        corr = blank_corrected(np.zeros((1024, 1024)))
        table = axis_table(corr, near_mapping, "x")
        np.testing.assert_allclose(
            table.coords, pixel_center_coords(32, 0.0, PITCH) / 9.0)

    def test_mask_band_propagates(self, near_mapping):
        values = np.ones((1024, 1024))
        corr = blank_corrected(values, flags=("raw", "accidental_subtracted"))
        corr = mask_neighbors(corr, radius=1)
        table = axis_table(corr, near_mapping, "x")
        idx = np.arange(32)
        want = (np.abs(idx[:, None] - idx[None, :]) <= 1) \
            & (idx[:, None] != idx[None, :])
        np.testing.assert_array_equal(table.masked, want)

    def test_projection_places_pair_mass(self, near_mapping):
        values = np.zeros((1024, 1024))
        l1 = 3 + 32 * (17 - 1) - 1
        l2 = 9 + 32 * (2 - 1) - 1
        values[l1, l2] = 2.5
        corr = blank_corrected(values)
        tx = axis_table(corr, near_mapping, "x")
        ty = axis_table(corr, near_mapping, "y")
        assert tx.values[2, 8] == 2.5
        assert tx.values.sum() == 2.5
        assert ty.values[16, 1] == 2.5


class TestPeakWidths:
    def test_near_field_difference_peak_exact(self, near_mapping):
        wd = 3.0        # pixel-unit width of the difference profile
        n = 32
        gx = gaussian_tensor(n, 1e6, wd / math.sqrt(2.0))
        tensor = np.einsum("ac,bd->abcd", gx, gx).reshape(1024, 1024)
        # tensor indexed (y1 x1 y2 x2) after the einsum ordering below
        corr = blank_corrected(tensor, mapping_mode="near")
        got = peak_variance(corr, near_mapping, "x")
        want = (wd * PITCH / 9.0) ** 2
        assert got == pytest.approx(want, rel=1e-6)

    def test_far_field_sum_peak_exact(self, far_mapping):
        ws = 2.0
        n = 32
        gx = gaussian_tensor(n, ws / math.sqrt(2.0), 1e6)
        tensor = np.einsum("ac,bd->abcd", gx, gx).reshape(1024, 1024)
        corr = blank_corrected(tensor, mapping_mode="far")
        got = peak_variance(corr, far_mapping, "x")
        scale = far_mapping.far_scale_per_mm_per_um
        want = (ws * PITCH * scale) ** 2
        assert got == pytest.approx(want, rel=1e-6)

    def test_masked_difference_bins_excluded(self, near_mapping):
        wd = 3.0
        n = 32
        gx = gaussian_tensor(n, 1e6, wd / math.sqrt(2.0))
        tensor = np.einsum("ac,bd->abcd", gx, gx).reshape(1024, 1024)
        corr = blank_corrected(tensor, flags=("raw", "accidental_subtracted"),
                               mapping_mode="near")
        corr = mask_neighbors(corr, radius=1)
        clean = peak_variance(corr, near_mapping, "x")
        # corrupt exactly the masked central diagonals; result must not move
        vals = corr.values.reshape(n, n, n, n)
        for y in range(n):
            for x in range(n - 1):
                vals[y, x, y, x + 1] += 50.0
                vals[y, x + 1, y, x] += 50.0
        poisoned = peak_variance(corr, near_mapping, "x")
        assert poisoned == pytest.approx(clean, rel=1e-9)

    def test_validation(self, near_mapping, far_mapping):
        """Peak widths need a near and a far mapping; evaluate_epr refuses
        an unspecified one in either slot."""
        corr = blank_corrected(np.zeros((1024, 1024)))
        unspecified = OpticalMapping(mode="unspecified")
        with pytest.raises(ConfigError):
            evaluate_epr(corr, corr, unspecified, far_mapping)
        with pytest.raises(ConfigError):
            evaluate_epr(corr, corr, near_mapping, unspecified)


def outcome(fn):
    """fn's value, or the class of the SpadError it raised."""
    try:
        return fn()
    except SpadError as exc:
        return type(exc)


def peaks_with_profiles(corr, mapping, axis, profiles, monkeypatch):
    """inferred_variance_peaks fed the given (sum, diff) profiles."""
    with monkeypatch.context() as m:
        m.setattr(epr, "peak_profiles", lambda proj: profiles)
        return outcome(lambda: peak_variance(corr, mapping, axis))


def rounding_spread(corr, mapping, axis, profiles, monkeypatch):
    """Relative spread of the peak variance under last-bit profile changes.

    The fit's stopping point moves with the rounding of its input; this is
    how far it moves when the profiles are perturbed at 1e-16 relative.
    """
    rng = np.random.default_rng(0)
    got = [peaks_with_profiles(
        corr, mapping, axis,
        tuple(p * (1.0 + rng.normal(0.0, 1e-16, p.size)) for p in profiles),
        monkeypatch) for _ in range(8)]
    return (max(got) - min(got)) / abs(np.median(got))


def both_routes(corr, mapping, axis, monkeypatch):
    """Peak variance from the axis projection and from the sum/diff maps.

    Checks on the way that the two routes' profiles agree to 1e-12. Returns
    (new, old, old route's profiles).
    """
    route = sum_diff_route_profiles(corr.values, corr.n_x, corr.n_y, axis)
    g2x, g2y = project_axes(corr.values, corr.n_x, corr.n_y)
    for got, want in zip(peak_profiles(g2x if axis == "x" else g2y), route):
        np.testing.assert_allclose(got, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())
    new = outcome(lambda: peak_variance(corr, mapping, axis))
    old = peaks_with_profiles(corr, mapping, axis, route, monkeypatch)
    return new, old, route


class TestPeakProfilesFromProjections:
    @pytest.mark.parametrize("radius", [0, 1])
    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("mode", ["near", "far"])
    def test_simulated_tensors(self, reduced_arms, near_mapping, far_mapping,
                               mode, axis, radius, monkeypatch):
        mapping = near_mapping if mode == "near" else far_mapping
        corr, _ = correct_chain(reduced_arms[mode], mask_radius=radius)
        new, old, _ = both_routes(corr, mapping, axis, monkeypatch)
        assert isinstance(old, float)
        assert new == pytest.approx(old, rel=1e-9)

    @pytest.mark.parametrize("mode", ["near", "far"])
    @pytest.mark.parametrize("seed", [6, 10])
    def test_routes_agree_across_seeds(self, reference_model, near_mapping,
                                       far_mapping, seed, mode, monkeypatch):
        """Converged fits end at their optimum, not where damping left them.

        A fit that stopped on a short damped step landed up to 8e-9 apart
        on the two routes' profiles, which differ only by rounding.
        """
        mapping = near_mapping if mode == "near" else far_mapping
        acc = simulate_accumulator(
            reference_model, mapping, build_sensor(parse_config("")),
            n_frames=200_000, pairs_per_frame=0.05, seed=seed)
        for radius in (0, 1):
            corr, _ = correct_chain(acc, mask_radius=radius)
            for axis in ("x", "y"):
                new, old, _ = both_routes(corr, mapping, axis, monkeypatch)
                assert isinstance(old, float)
                assert new == pytest.approx(old, rel=1e-9), (radius, axis)

    @pytest.mark.parametrize("radius", [None, 0, 1])
    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize("mode", ["near", "far"])
    def test_non_square_geometry(self, near_mapping, far_mapping, mode, axis,
                                 radius, monkeypatch):
        """5 x 4 pixels: the same outcome, the same variance to 1e-9.

        On the masked far-field profiles the fit itself moves by up to 3e-7
        when its input changes in the last bit; there the routes must agree
        to twice that measured spread.
        """
        n_x, n_y = 5, 4
        rng = np.random.default_rng(91)
        jx = gaussian_tensor(n_x, 1.5, 0.8)
        jy = gaussian_tensor(n_y, 1.2, 0.7)
        tensor = np.einsum("ac,bd->abcd", jy, jx).reshape(20, 20)
        tensor += rng.normal(0.0, 0.01, tensor.shape)
        corr = CorrectedG2(values=tensor, g1=np.zeros(20),
                           flags=("raw", "accidental_subtracted"), n_x=n_x,
                           n_y=n_y, bins_per_frame=255, window=10, shift=20,
                           n_frames=1_000_000, mapping_mode=mode)
        if radius is not None:
            corr = mask_neighbors(corr, radius)
        mapping = near_mapping if mode == "near" else far_mapping
        new, old, route = both_routes(corr, mapping, axis, monkeypatch)
        if not isinstance(old, float):
            assert new is old
            return
        tol = 1e-9
        if mode == "far":
            tol = max(tol, 2.0 * rounding_spread(corr, mapping, axis, route,
                                                 monkeypatch))
        assert new == pytest.approx(old, rel=tol)


def synthetic_pair_tensors(model, near_mapping, far_mapping):
    """Noise-free tensors sampled from the model's joint densities."""
    n = 32
    (sxp, sxm), (syp, sym) = coordinate_widths(model)["near"]
    pos = pixel_center_coords(n, 0.0, PITCH) / near_mapping.magnification
    mom = pixel_center_coords(n, 0.0, PITCH) \
        * far_mapping.far_scale_per_mm_per_um

    def joint(c, s_plus, s_minus):
        plus = c[:, None] + c[None, :]
        minus = c[:, None] - c[None, :]
        return np.exp(-plus ** 2 / (4 * s_plus ** 2)
                      - minus ** 2 / (4 * s_minus ** 2))

    near_x = joint(pos, sxp, sxm)
    near_y = joint(pos, syp, sym)
    far_x = joint(mom, model.sigma_q_plus_x, model.sigma_q_minus_x)
    far_y = joint(mom, model.sigma_q_plus_y, model.sigma_q_minus_y)
    near = np.einsum("ac,bd->abcd", near_y, near_x).reshape(1024, 1024)
    far = np.einsum("ac,bd->abcd", far_y, far_x).reshape(1024, 1024)
    return (blank_corrected(near, mapping_mode="near"),
            blank_corrected(far, mapping_mode="far"))


class TestEvaluateEpr:
    def test_report_structure_and_consistency(self, near_mapping,
                                              far_mapping):
        settings = defaults()
        corr_near, corr_far = synthetic_pair_tensors(
            build_model(settings), near_mapping, far_mapping)
        targets = target_widths(settings)
        report = evaluate_epr(corr_near, corr_far, near_mapping, far_mapping,
                              expected=targets)
        assert set(report.methods) == {"numerical", "gauss1d", "gauss2d",
                                       "peaks"}
        for name, m in report.methods.items():
            recomputed_vx = v_min(m["delta_x_um"] ** 2,
                                  m["delta_qx_per_mm"] ** 2)
            assert m["v_x"] == pytest.approx(recomputed_vx, rel=1e-12), name
            assert m["violated_x"] == (m["v_x"] < 0.25)
            assert m["violated_y"] == (m["v_y"] < 0.25)
            assert m["violated_x"] and m["violated_y"], name
        # the expected row is the targets themselves, not a round trip
        assert report.expected == {
            **targets,
            "v_x": v_min(37.3 ** 2, 4.0 ** 2),
            "v_y": v_min(37.3 ** 2, 3.4 ** 2)}
        assert report.meta["n_frames_near"] == 1_000_000
        assert report.meta["flags_far"] == ["raw"]

    def test_gauss2d_recovers_model_on_noiseless_tensors(
            self, reference_model, near_mapping, far_mapping):
        corr_near, corr_far = synthetic_pair_tensors(
            reference_model, near_mapping, far_mapping)
        report = evaluate_epr(corr_near, corr_far, near_mapping, far_mapping)
        m = report.methods["gauss2d"]
        # reference_model is built from these targets
        assert m["delta_qx_per_mm"] == pytest.approx(4.0, rel=0.05)
        assert m["delta_x_um"] == pytest.approx(37.3, rel=0.10)

    def test_json_round_trip_and_text_marks(self, reference_model,
                                            near_mapping, far_mapping):
        corr_near, corr_far = synthetic_pair_tensors(
            reference_model, near_mapping, far_mapping)
        report = evaluate_epr(corr_near, corr_far, near_mapping, far_mapping)
        blob = report.to_json()
        assert blob == report.to_json()
        parsed = json.loads(blob)
        assert parsed["methods"]["gauss2d"]["violated_x"] is True
        text = report.to_text()
        assert "*" in text
        for name in ("numerical", "gauss1d", "gauss2d", "peaks"):
            assert name in text

    def test_mapping_modes_enforced(self, near_mapping, far_mapping):
        corr = blank_corrected(np.ones((1024, 1024)))
        with pytest.raises(ConfigError):
            evaluate_epr(corr, corr, far_mapping, near_mapping)

    def test_swapped_tensors_rejected(self, near_mapping, far_mapping):
        near = blank_corrected(np.ones((1024, 1024)), mapping_mode="near")
        far = blank_corrected(np.ones((1024, 1024)), mapping_mode="far")
        with pytest.raises(ConfigError, match="slot got a far-field tensor"):
            evaluate_epr(far, near, near_mapping, far_mapping)


def reduced_study(seed, n_x=32, n_y=32):
    """Both arms at 2e5 frames and a map from 2e5 characterization frames."""
    settings = parse_config(f"""
        sensor.n_x = {n_x}
        sensor.n_y = {n_y}
        crosstalk.p_1_0 = 1e-3
        crosstalk.p_-1_0 = 1e-3
        crosstalk.p_0_1 = 1e-3
        crosstalk.p_0_-1 = 1e-3
        run.seed = {seed}
        correct.characterization_frames = 200000
        correct.crosstalk_inner_window = {29 if n_x == n_y == 32 else 3}
        """)
    model, sensor_cfg = build_model(settings), build_sensor(settings)
    mappings = {mode: build_mapping(settings, mode) for mode in ("near", "far")}
    accs = {mode: simulate_accumulator(
        model, mapping, sensor_cfg, n_frames=200_000, pairs_per_frame=0.2,
        crosstalk=build_crosstalk(settings), seed=seed + (mode == "near"))
        for mode, mapping in mappings.items()}
    return accs, mappings, characterize_crosstalk(settings)


def failure(fn):
    """fn's value, or (type, message) of the SpadError it raised."""
    try:
        return fn()
    except SpadError as exc:
        return type(exc), str(exc)


def per_table_values(corr, mappings):
    """d2 per method from each estimator run on one problem at a time,
    each list in evaluate_epr's order (x near, x far, y near, y far); a
    problem that fails holds (type, message) of its error."""
    d2 = {name: [] for name in epr.METHODS}
    for axis in "xy":
        for mode in ("near", "far"):
            table = axis_table(corr[mode], mappings[mode], axis)
            d2["numerical"].append(
                failure(lambda: table_variance("numerical", table)))
            d2["gauss1d"].append(
                failure(lambda: table_variance("gauss1d", table)))
            d2["gauss2d"].append(
                failure(lambda: table_variance("gauss2d", table)))
            d2["peaks"].append(failure(
                lambda: peak_variance(corr[mode], mappings[mode], axis)))
    return d2


class TestStackedEvaluation:
    """evaluate_epr's stacked solves against stacks of one."""

    @pytest.mark.parametrize("n_x, n_y, seed",
                             [(32, 32, 21), (32, 32, 22), (32, 32, 23),
                              (16, 12, 14)])
    def test_stacked_equals_per_table(self, n_x, n_y, seed):
        """Every (method, axis) result as stacks of one give it.

        numerical and gauss1d bit for bit. A problem that fails alone has a
        NaN width in the report, and its axis has a NaN V, no violation and
        the status of the axis' first failure, near before far. On 16 x 12
        pixels the x and y problems differ in length and run in separate
        solves of each estimator.

        A near-field peak profile leaves its masked bins at zero weight
        where the far-field one keeps them, so the stacked and the lone fit
        round differently, take different damping paths and stop off the
        optimum at different points. In reports without a failure gauss2d
        and peaks agree to 1e-9. The reports with a failure hold the
        16 x 12 peak fits that stop 1e-9 to 1.5e-8 apart, so there the
        fitted widths agree to 1e-7.
        """
        accs, mappings, cmap = reduced_study(seed, n_x, n_y)
        ok = dict.fromkeys(epr.METHODS, 0)
        for method, use_map, radius in itertools.product(
                ("shifted_window", "g1_product"), (True, False), (0, 1, 2)):
            corr = {mode: correct_chain(
                acc, accidental_method=method, mask_radius=radius,
                crosstalk_map=cmap if use_map else None)[0]
                for mode, acc in accs.items()}
            want = per_table_values(corr, mappings)
            report = evaluate_epr(corr["near"], corr["far"],
                                  mappings["near"], mappings["far"])
            rel = 1e-7 if report.failures() else 1e-9
            for name in epr.METHODS:
                row = report.methods[name]
                for i, axis in enumerate("xy"):
                    label = (method, use_map, radius, name, axis)
                    near, far = want[name][2 * i:2 * i + 2]
                    for key, value in ((f"delta_{axis}_um", near),
                                       (f"delta_q{axis}_per_mm", far)):
                        if isinstance(value, tuple):
                            assert math.isnan(row[key]), label
                        elif name in ("numerical", "gauss1d"):
                            assert row[key] == math.sqrt(value), label
                        else:
                            assert row[key] ** 2 == pytest.approx(
                                value, rel=rel), label
                    failed = [v for v in (near, far) if isinstance(v, tuple)]
                    if failed:
                        kind, message = failed[0]
                        assert row[f"status_{axis}"] == (
                            f"{kind.__name__}: {message}"), label
                        assert math.isnan(row[f"v_{axis}"]), label
                        assert row[f"violated_{axis}"] is False, label
                    else:
                        ok[name] += 1
                        assert row[f"status_{axis}"] == "ok", label
                        assert row[f"violated_{axis}"] == violates(
                            v_min(near, far)), label
        # 12 variants x 2 axes; four full reports gave each method 8
        assert min(ok.values()) >= 8, ok

    @pytest.mark.parametrize("first, later", [("spike", "flat"),
                                              ("flat", "spike")])
    def test_first_failure_in_order(self, reference_model, near_mapping,
                                    far_mapping, monkeypatch, first, later):
        """A failure lands on its own method and axis.

        The peak profiles are planted: a spike that runs to the iteration
        cap or a flat profile, first on the near x projection and later on
        the far x and far y ones. peaks reports the near x failure on x
        (near before far) and the far y failure on y, with the type and
        message a stack of one returns; every other result keeps the value
        it has without the planted profiles.
        """
        corr_near, corr_far = synthetic_pair_tensors(
            reference_model, near_mapping, far_mapping)
        clean = evaluate_epr(corr_near, corr_far, near_mapping, far_mapping)
        near_x = project_axes(corr_near.values, 32, 32)[0]
        far_x, far_y = project_axes(corr_far.values, 32, 32)
        acceptance = 32 - np.abs(np.arange(63) - 31)
        spike = 1.5 + np.random.default_rng(0).normal(0.0, 0.3, 63)
        spike[12] = 75.0
        planted = {"spike": (spike * acceptance,) * 2,
                   "flat": (acceptance * 2.0,) * 2}
        real = epr.peak_profiles

        def profiles(proj):
            if np.array_equal(proj, near_x):
                return planted[first]
            if np.array_equal(proj, far_x) or np.array_equal(proj, far_y):
                return planted[later]
            return real(proj)

        monkeypatch.setattr(epr, "peak_profiles", profiles)
        errors = {}
        for name, corr, mapping, axis in (
                (first, corr_near, near_mapping, "x"),
                (later, corr_far, far_mapping, "y")):
            kind, message = failure(lambda: peak_variance(corr, mapping, axis))
            errors[name] = f"{kind.__name__}: {message}"
        assert errors == {
            "spike": "NotConverged: peak profile fit did not converge",
            "flat": "DegenerateInput: flat input has no peak to fit"}
        report = evaluate_epr(corr_near, corr_far, near_mapping, far_mapping)
        peaks = report.methods["peaks"]
        assert (peaks["status_x"], peaks["status_y"]) == (errors[first],
                                                          errors[later])
        for key in ("delta_x_um", "delta_qx_per_mm", "delta_qy_per_mm",
                    "v_x", "v_y"):
            assert math.isnan(peaks[key]), key
        assert peaks["delta_y_um"] == clean.methods["peaks"]["delta_y_um"]
        assert not peaks["violated_x"] and not peaks["violated_y"]
        assert report.failures() == [("peaks", "x", errors[first]),
                                     ("peaks", "y", errors[later])]
        for name in ("numerical", "gauss1d", "gauss2d"):
            assert report.methods[name] == clean.methods[name], name
        assert json.loads(report.to_json())["methods"]["peaks"]["v_x"] is None
        text = report.to_text()
        assert f"peaks x failed: {errors[first]}" in text
        assert f"peaks y failed: {errors[later]}" in text

    @pytest.mark.parametrize("radius", [None, 1])
    def test_two_projections_and_three_solves(self, reference_model,
                                              near_mapping, far_mapping,
                                              monkeypatch, radius):
        """Each tensor is projected once; each fitted estimator is one
        damped_least_squares run over all four of its problems."""
        corr_near, corr_far = synthetic_pair_tensors(
            reference_model, near_mapping, far_mapping)
        if radius is not None:
            corr_near, corr_far = (
                mask_neighbors(dataclasses.replace(
                    c, flags=("raw", "accidental_subtracted")), radius)
                for c in (corr_near, corr_far))
        calls = {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return wrapper

        # replace the function wherever spadcorr holds it
        for name, fn in (("project_axes", correlator.project_axes),
                         ("solve", fitting.damped_least_squares)):
            wrapper = counted(name, fn)
            for module in (correlator, epr, fitting):
                for key, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, key, wrapper)
        report = evaluate_epr(corr_near, corr_far, near_mapping, far_mapping)
        assert all(m["violated_x"] for m in report.methods.values())
        assert calls == {"project_axes": 2, "solve": 3}
