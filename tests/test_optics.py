import numpy as np
import pytest
from hypothesis import given, strategies as st

from spadcorr.errors import ConfigError
from spadcorr.optics import (
    DoubleGaussianModel,
    OpticalMapping,
    map_sensor_to_object,
    position_widths,
    position_widths_by_coordinate,
    predict_epr,
)


class TestDoubleGaussianDensity:
    def test_nonpositive_width_rejected(self):
        with pytest.raises(ConfigError):
            DoubleGaussianModel(0.0, 1.0, 1.0, 1.0)


class TestPositionWidths:
    def test_half_inverse_relation(self):
        # sigma_q- = 0.5 / um = 500 / mm pairs with a 1 um position width
        m = DoubleGaussianModel(sigma_q_plus_x=1.0, sigma_q_minus_x=500.0,
                                sigma_q_plus_y=1.0, sigma_q_minus_y=1.0)
        (sx_narrow, _), _ = position_widths(m)
        assert sx_narrow == pytest.approx(1.0, rel=1e-12)

    def test_equal_widths_stay_equal(self):
        s = 7.25
        m = DoubleGaussianModel(s, s, s, s)
        (a, b), (c, d) = position_widths(m)
        assert a == b == c == d == pytest.approx(1e3 / (2 * s), rel=1e-12)

    def test_coordinate_widths_follow_duality(self, reference_model):
        m = reference_model
        (sxp, sxm), (syp, sym) = position_widths_by_coordinate(m)
        assert sxp == pytest.approx(1e3 / (2 * m.sigma_q_plus_x))
        assert sxm == pytest.approx(1e3 / (2 * m.sigma_q_minus_x))
        assert syp == pytest.approx(1e3 / (2 * m.sigma_q_plus_y))
        assert sym == pytest.approx(1e3 / (2 * m.sigma_q_minus_y))

    def test_target_solve_round_trips(self):
        m = DoubleGaussianModel.from_inferred_targets(37.3, 4.0, 37.3, 3.4)
        pred = predict_epr(m)
        assert pred.x.delta_pos_um == pytest.approx(37.3, rel=1e-9)
        assert pred.x.delta_mom_per_mm == pytest.approx(4.0, rel=1e-9)
        assert pred.y.delta_pos_um == pytest.approx(37.3, rel=1e-9)
        assert pred.y.delta_mom_per_mm == pytest.approx(3.4, rel=1e-9)

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
    def test_equal_widths_give_plain_sigma(self):
        m = DoubleGaussianModel(3.0, 3.0, 5.0, 5.0)
        pred = predict_epr(m)
        assert pred.x.delta_mom_per_mm == pytest.approx(3.0, rel=1e-12)
        assert pred.y.delta_mom_per_mm == pytest.approx(5.0, rel=1e-12)

    def test_paper_scale_variance_products(self, reference_model):
        pred = predict_epr(reference_model)
        assert pred.x.v_min == pytest.approx((37.3e-3 * 4.0) ** 2, rel=1e-9)
        assert pred.y.v_min == pytest.approx((37.3e-3 * 3.4) ** 2, rel=1e-9)
        assert pred.x.v_min == pytest.approx(2.2e-2, abs=3e-4)
        assert pred.y.v_min == pytest.approx(1.6e-2, abs=1e-4)

    def test_swap_invariance(self):
        a = DoubleGaussianModel(2.0, 17.0, 3.0, 19.0)
        b = DoubleGaussianModel(17.0, 2.0, 19.0, 3.0)
        pa, pb = predict_epr(a), predict_epr(b)
        assert pa.x.v_min == pytest.approx(pb.x.v_min, rel=1e-12)
        assert pa.y.v_min == pytest.approx(pb.y.v_min, rel=1e-12)
        assert pa.x.delta_pos_um == pytest.approx(pb.x.delta_pos_um,
                                                  rel=1e-12)
