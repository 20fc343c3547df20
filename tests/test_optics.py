import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import coordinate_widths, predicted_widths
from spadcorr.config import build_model, defaults, target_widths
from spadcorr.epr import inferred_variance_from_widths, v_min
from spadcorr.errors import ConfigError
from spadcorr.optics import (
    DoubleGaussianModel,
    OpticalMapping,
    map_sensor_to_object,
)
from spadcorr.sensor import _draw_pair_coordinates


def near_field_widths(model, magnification=9.0, count=64):
    """Coordinate widths (sigma+, sigma-) per axis that the simulator's
    near-field draw applies, in um.

    The draw scales standard normals by the widths; replaying the same
    normals and dividing them out of the rotated object-plane coordinates
    reads the widths back (median over the draws, rounding only).
    """
    mapping = OpticalMapping(mode="near", magnification=magnification)
    c1, c2 = _draw_pair_coordinates(model, mapping, count,
                                    np.random.default_rng(5))
    replay = np.random.default_rng(5)
    z_plus = replay.normal(0.0, 1.0, (count, 2))
    z_minus = replay.normal(0.0, 1.0, (count, 2))
    scale = math.sqrt(2.0) * magnification
    plus = np.median((c1 + c2) / scale / z_plus, axis=0)
    minus = np.median((c1 - c2) / scale / z_minus, axis=0)
    return ((plus[0], minus[0]), (plus[1], minus[1]))


class TestDoubleGaussianDensity:
    def test_nonpositive_width_rejected(self):
        with pytest.raises(ConfigError):
            DoubleGaussianModel(0.0, 1.0, 1.0, 1.0)


class TestPositionWidths:
    """The near-field draw is the one place sigma_x = 1/(2 sigma_q) is
    written; these read it back from the draw."""

    def test_half_inverse_relation(self):
        # sigma_q- = 0.5 / um = 500 / mm pairs with a 1 um position width
        m = DoubleGaussianModel(sigma_q_plus_x=1.0, sigma_q_minus_x=500.0,
                                sigma_q_plus_y=1.0, sigma_q_minus_y=1.0)
        (_, sx_minus), _ = near_field_widths(m)
        assert sx_minus == pytest.approx(1.0, rel=1e-9)

    def test_equal_widths_stay_equal(self):
        s = 7.25
        m = DoubleGaussianModel(s, s, s, s)
        (a, b), (c, d) = near_field_widths(m)
        for got in (a, b, c, d):
            assert got == pytest.approx(1e3 / (2 * s), rel=1e-9)

    def test_coordinate_widths_follow_duality(self, reference_model):
        got = near_field_widths(reference_model)
        want = coordinate_widths(reference_model)["near"]
        for got_axis, want_axis in zip(got, want):
            assert got_axis == pytest.approx(want_axis, rel=1e-9)

    def test_target_solve_round_trips(self):
        m = DoubleGaussianModel.from_inferred_targets(37.3, 4.0, 37.3, 3.4)
        pred = predicted_widths(m)
        assert pred["delta_x_um"] == pytest.approx(37.3, rel=1e-9)
        assert pred["delta_qx_per_mm"] == pytest.approx(4.0, rel=1e-9)
        assert pred["delta_y_um"] == pytest.approx(37.3, rel=1e-9)
        assert pred["delta_qy_per_mm"] == pytest.approx(3.4, rel=1e-9)
        v_x = (pred["delta_x_um"] * 1e-3 * pred["delta_qx_per_mm"]) ** 2
        assert v_x == pytest.approx((37.3e-3 * 4.0) ** 2, rel=1e-9)

    def test_separable_targets_rejected(self):
        # product above the 1/4 bound has no double-Gaussian solution
        with pytest.raises(ConfigError):
            DoubleGaussianModel.from_inferred_targets(300.0, 4.0, 37.3, 3.4)


class TestSensorMapping:
    def test_far_field_edge_momentum(self, far_mapping):
        q = map_sensor_to_object(far_mapping, 700.0)
        assert q == pytest.approx(36.2, abs=0.05)

    def test_origin_maps_to_origin(self, near_mapping, far_mapping):
        assert map_sensor_to_object(near_mapping, 0.0) == 0.0
        assert map_sensor_to_object(far_mapping, 0.0) == 0.0

    def test_near_field_pixel_pitch(self, near_mapping):
        x = map_sensor_to_object(near_mapping, 44.67)
        assert x == pytest.approx(4.963, abs=1e-3)

    @given(st.floats(-1e4, 1e4), st.floats(-50, 50))
    def test_linearity(self, rho, scale):
        for mode in ("near", "far"):
            mapping = OpticalMapping(mode=mode)
            lhs = map_sensor_to_object(mapping, scale * rho)
            rhs = scale * map_sensor_to_object(mapping, rho)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_unspecified_mode_has_no_scale(self):
        mapping = OpticalMapping(mode="unspecified")
        with pytest.raises(ConfigError):
            map_sensor_to_object(mapping, 1.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            OpticalMapping(mode="near", magnification=0.0)
        with pytest.raises(ConfigError):
            OpticalMapping(mode="sideways")


class TestPredictEpr:
    """What a model predicts: the report's formula on its widths."""

    def test_equal_widths_give_plain_sigma(self):
        for s in (3.0, 5.0):
            assert inferred_variance_from_widths(s, s) == pytest.approx(
                s * s, rel=1e-12)

    def test_paper_scale_variance_products(self):
        targets = target_widths(defaults())
        v_x = v_min(targets["delta_x_um"] ** 2,
                    targets["delta_qx_per_mm"] ** 2)
        v_y = v_min(targets["delta_y_um"] ** 2,
                    targets["delta_qy_per_mm"] ** 2)
        assert v_x == pytest.approx((37.3e-3 * 4.0) ** 2, rel=1e-12)
        assert v_y == pytest.approx((37.3e-3 * 3.4) ** 2, rel=1e-12)
        assert v_x == pytest.approx(2.2e-2, abs=3e-4)
        assert v_y == pytest.approx(1.6e-2, abs=1e-4)
        # the model built from the targets predicts them
        pred = predicted_widths(build_model(defaults()))
        for key, want in targets.items():
            assert pred[key] == pytest.approx(want, rel=1e-9), key

    def test_swap_invariance(self):
        a = DoubleGaussianModel(2.0, 17.0, 3.0, 19.0)
        b = DoubleGaussianModel(17.0, 2.0, 19.0, 3.0)
        for field in ("near", "far"):
            for wa, wb in zip(coordinate_widths(a)[field],
                              coordinate_widths(b)[field]):
                assert inferred_variance_from_widths(*wa) == pytest.approx(
                    inferred_variance_from_widths(*wb), rel=1e-12)
