"""Transverse two-photon optics for a collinear downconversion source.

Models the joint transverse-momentum amplitude of a photon pair created in a
periodically poled crystal, plus the imaging geometry that puts either the
source plane (near field, magnification M) or the pump focal plane (far field,
Fourier lens f) onto the sensor.

Two density models are provided. The physical one is the pump envelope times
the phase-matching sinc. The double-Gaussian surrogate carries one standard
deviation per axis for each of the centroid and difference momentum
coordinates q+- = (q1 +- q2)/sqrt(2); it is exact in the limit where the sinc
is well approximated by a Gaussian and is the model the whole analysis chain
is calibrated against.

Units are fixed package-wide: transverse momenta in 1/mm, lengths on the
sensor in um, crystal length in mm, grating period in um, angular frequencies
in rad/s.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

from .errors import ConfigError, EvanescentInput

SPEED_OF_LIGHT_M_S = 299792458.0


def _as_qvec(q):
    """Normalize a transverse momentum argument to shape (..., 2) in 1/mm.

    Scalars and plain arrays are treated as x-components with qy = 0.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim and q.shape[-1] == 2:
        return q
    return np.stack([q, np.zeros_like(q)], axis=-1)


@dataclasses.dataclass(frozen=True)
class DispersionModel:
    """Refractive index versus angular frequency.

    Either a constant ``n0`` or an arbitrary callable. The callable must be
    vectorized over numpy arrays.
    """

    n0: float = 1.0
    n_of_omega: Callable[[np.ndarray], np.ndarray] | None = None

    def n(self, omega):
        if self.n_of_omega is not None:
            return np.asarray(self.n_of_omega(np.asarray(omega, dtype=float)))
        return np.full_like(np.asarray(omega, dtype=float), self.n0)


@dataclasses.dataclass(frozen=True)
class PumpProfile:
    """Transverse pump amplitude E_p(q), default Gaussian.

    waist_x_um / waist_y_um are field waists: E(rho) ~ exp(-x^2/w0x^2 - ...),
    so the amplitude in momentum space is exp(-(qx^2 w0x^2 + qy^2 w0y^2)/4).
    A custom complex amplitude callable overrides the Gaussian.
    """

    waist_x_um: float = 250.0
    waist_y_um: float = 300.0
    amplitude_of_q: Callable[[np.ndarray], np.ndarray] | None = None

    def amplitude(self, q_per_mm):
        q = _as_qvec(q_per_mm)
        if self.amplitude_of_q is not None:
            return np.asarray(self.amplitude_of_q(q))
        # q [1/mm] * w [um] * 1e-3 is dimensionless
        ax = q[..., 0] * self.waist_x_um * 1e-3
        ay = q[..., 1] * self.waist_y_um * 1e-3
        return np.exp(-(ax * ax + ay * ay) / 4.0)


def evaluate_delta_kz(q1, q2, omega2, omega_pump, dispersion: DispersionModel,
                      grating_period_um: float) -> np.ndarray:
    """Longitudinal wavevector mismatch of the quasi-phase-matched process.

    delta_kz = kz(omega_pump - omega2, q1) + kz(omega2, q2)
               - kz(omega_pump, q1 + q2) + 2*pi/G

    with kz = sqrt((omega n / c)^2 - |q|^2). Returns 1/um.

    Raises EvanescentInput if any sqrt argument is negative (transverse
    momentum beyond the propagating cone).
    """
    if grating_period_um <= 0:
        raise ConfigError("grating period must be positive")
    q1 = _as_qvec(q1) * 1e-3   # 1/mm -> 1/um
    q2 = _as_qvec(q2) * 1e-3
    omega2 = np.asarray(omega2, dtype=float)
    omega1 = omega_pump - omega2

    def kz(omega, qvec):
        k = dispersion.n(omega) * omega / SPEED_OF_LIGHT_M_S * 1e-6  # 1/um
        arg = k * k - np.sum(qvec * qvec, axis=-1)
        if np.any(arg < 0):
            raise EvanescentInput("transverse momentum exceeds total wavevector")
        return np.sqrt(arg)

    return (kz(omega1, q1) + kz(omega2, q2) - kz(omega_pump, q1 + q2)
            + 2.0 * math.pi / grating_period_um)


@dataclasses.dataclass(frozen=True)
class SincModel:
    """Physical joint-density model: pump envelope times phase-matching sinc.

    density(q1, q2) = |E_p(q1+q2)|^2 * sinc^2(delta_kz * L / 2)

    Unnormalized (relative density). Exists for density evaluation and
    rejection sampling; the analysis chain itself runs on the
    double-Gaussian surrogate.
    """

    pump: PumpProfile = PumpProfile()
    dispersion: DispersionModel = DispersionModel(n0=1.8396)
    omega_pump: float = 2 * math.pi * SPEED_OF_LIGHT_M_S / 405e-9
    crystal_length_mm: float = 12.0
    grating_period_um: float = 3.51043

    def density(self, q1, q2, omega2=None):
        q1 = _as_qvec(q1)
        q2 = _as_qvec(q2)
        omega2 = self.omega_pump / 2.0 if omega2 is None else omega2
        dkz = evaluate_delta_kz(q1, q2, omega2, self.omega_pump,
                                self.dispersion, self.grating_period_um)
        half_phase = dkz * self.crystal_length_mm * 1e3 / 2.0  # L in um
        envelope = np.abs(self.pump.amplitude(q1 + q2)) ** 2
        # np.sinc is sin(pi x)/(pi x)
        return envelope * np.sinc(half_phase / math.pi) ** 2


@dataclasses.dataclass(frozen=True)
class DoubleGaussianModel:
    """Gaussian surrogate for the joint momentum density, one pair per axis.

    sigma_q_plus_* / sigma_q_minus_* are the standard deviations of the joint
    momentum *density* along the centroid q+ = (q1+q2)/sqrt(2) and difference
    q- = (q1-q2)/sqrt(2) coordinates, in 1/mm. For a downconversion source
    the centroid width is pump-limited (narrow) and the difference width is
    phase-matching-limited (broad).
    """

    sigma_q_plus_x: float
    sigma_q_minus_x: float
    sigma_q_plus_y: float
    sigma_q_minus_y: float

    def __post_init__(self):
        for name in ("sigma_q_plus_x", "sigma_q_minus_x",
                     "sigma_q_plus_y", "sigma_q_minus_y"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"{name} must be positive")

    @classmethod
    def from_inferred_targets(cls, delta_x_um: float, delta_qx_per_mm: float,
                              delta_y_um: float, delta_qy_per_mm: float
                              ) -> "DoubleGaussianModel":
        """Build the model whose predicted minimum inferred widths match the
        four targets exactly.

        Per axis, with D_x = delta_pos^2 (mm^2) and D_q = delta_mom^2 (1/mm^2),
        the two squared momentum widths are the roots of

            t^2 - t / (2 D_x) + D_q / (4 D_x) = 0

        which is solvable iff the target product violates (or saturates) the
        separability bound, D_x * D_q <= 1/4. The narrow root is assigned to
        the centroid coordinate.
        """
        sx = _solve_axis(delta_x_um, delta_qx_per_mm)
        sy = _solve_axis(delta_y_um, delta_qy_per_mm)
        return cls(sigma_q_plus_x=sx[0], sigma_q_minus_x=sx[1],
                   sigma_q_plus_y=sy[0], sigma_q_minus_y=sy[1])

    def density(self, q1, q2):
        q1 = _as_qvec(q1)
        q2 = _as_qvec(q2)
        qp = (q1 + q2) / math.sqrt(2.0)
        qm = (q1 - q2) / math.sqrt(2.0)
        return np.exp(
            -qp[..., 0] ** 2 / (2 * self.sigma_q_plus_x ** 2)
            - qm[..., 0] ** 2 / (2 * self.sigma_q_minus_x ** 2)
            - qp[..., 1] ** 2 / (2 * self.sigma_q_plus_y ** 2)
            - qm[..., 1] ** 2 / (2 * self.sigma_q_minus_y ** 2))


def _solve_axis(delta_pos_um: float, delta_mom_per_mm: float) -> tuple[float, float]:
    if delta_pos_um <= 0 or delta_mom_per_mm <= 0:
        raise ConfigError("inferred-width targets must be positive")
    d_x = (delta_pos_um * 1e-3) ** 2          # mm^2
    d_q = delta_mom_per_mm ** 2               # 1/mm^2
    if d_x * d_q > 0.25:
        raise ConfigError(
            "targets do not violate the separability bound (product > 1/4); "
            "no double-Gaussian model reproduces them")
    s = 1.0 / (2.0 * d_x)
    p = d_q / (4.0 * d_x)
    root = math.sqrt(s * s - 4.0 * p)
    narrow = math.sqrt((s - root) / 2.0)
    broad = math.sqrt((s + root) / 2.0)
    return narrow, broad


def evaluate_joint_density(model, q1, q2) -> np.ndarray:
    """Joint momentum density of either model at (q1, q2), both in 1/mm."""
    return model.density(q1, q2)


def position_widths(model: DoubleGaussianModel):
    """Position-space width pair per axis, in um.

    Returns ((sx_plus_x, sx_minus_x), (sx_plus_y, sx_minus_y)) with
    sigma_x+- = 1 / (2 sigma_q-+). The slot convention keeps the narrow
    (pump-limited) width first in both domains; note that the narrow position
    width physically lives on the *difference* coordinate x- (photon pairs
    are position-correlated), see position_widths_by_coordinate.
    """
    return (
        (1e3 / (2.0 * model.sigma_q_minus_x), 1e3 / (2.0 * model.sigma_q_plus_x)),
        (1e3 / (2.0 * model.sigma_q_minus_y), 1e3 / (2.0 * model.sigma_q_plus_y)),
    )


def momentum_widths_from_position(widths_um):
    """Inverse of position_widths: ((sq+x, sq-x), (sq+y, sq-y)) in 1/mm."""
    (xpx, xmx), (xpy, xmy) = widths_um
    return (
        (1e3 / (2.0 * xmx), 1e3 / (2.0 * xpx)),
        (1e3 / (2.0 * xmy), 1e3 / (2.0 * xpy)),
    )


def position_widths_by_coordinate(model: DoubleGaussianModel):
    """Standard deviations of the position coordinates x+- = (x1 +- x2)/sqrt(2).

    Pure-state Fourier duality pairs each position coordinate with its
    matching momentum coordinate: sigma(x+-) = 1/(2 sigma(q+-)). The broad
    momentum difference therefore gives a tight position correlation.
    Returns ((sigma_x_plus, sigma_x_minus) per axis) in um.
    """
    return (
        (1e3 / (2.0 * model.sigma_q_plus_x), 1e3 / (2.0 * model.sigma_q_minus_x)),
        (1e3 / (2.0 * model.sigma_q_plus_y), 1e3 / (2.0 * model.sigma_q_minus_y)),
    )


MAPPING_MODES = ("far", "near", "unspecified")


@dataclasses.dataclass(frozen=True)
class OpticalMapping:
    """Sensor-plane to object-space mapping.

    far:  q [1/mm] = (2 pi / lambda) * rho / f      (Fourier lens)
    near: x [um]   = rho / M                        (imaging system)

    center_offset_px shifts where the optical axis hits the pixel grid,
    in pixel units, relative to the geometric center of the array.
    """

    mode: str = "far"
    magnification: float = 9.0
    focal_length_mm: float = 150.0
    wavelength_nm: float = 810.0
    center_offset_px: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.mode not in MAPPING_MODES:
            raise ConfigError(f"unknown mapping mode {self.mode!r}")
        if self.magnification <= 0 or self.focal_length_mm <= 0 \
                or self.wavelength_nm <= 0:
            raise ConfigError("mapping parameters must be positive")

    @property
    def far_scale_per_mm_per_um(self) -> float:
        """d q [1/mm] per d rho [um] in the far field."""
        lam_um = self.wavelength_nm * 1e-3
        f_um = self.focal_length_mm * 1e3
        return 2.0 * math.pi / (lam_um * f_um) * 1e3


def map_sensor_to_object(mapping: OpticalMapping, rho_um):
    """Linear sensor-plane to object-space map.

    Far field returns transverse momentum in 1/mm, near field returns object
    position in um. Accepts scalars or arrays (componentwise).
    """
    rho = np.asarray(rho_um, dtype=float)
    if mapping.mode == "far":
        return rho * mapping.far_scale_per_mm_per_um
    if mapping.mode == "near":
        return rho / mapping.magnification
    raise ConfigError("unspecified mapping has no object-space scale")


def object_scale_per_pixel(mapping: OpticalMapping, pixel_pitch_um: float) -> float:
    """Object-space step per pixel: 1/mm in the far field, um in the near."""
    return float(map_sensor_to_object(mapping, pixel_pitch_um))


@dataclasses.dataclass(frozen=True)
class AxisPrediction:
    delta_pos_um: float
    delta_mom_per_mm: float
    v_min: float


@dataclasses.dataclass(frozen=True)
class EprPrediction:
    x: AxisPrediction
    y: AxisPrediction


def predict_epr(model: DoubleGaussianModel) -> EprPrediction:
    """Predicted minimum inferred widths and variance products, per axis.

    Uses delta^2(a|b) = 2 s+^2 s-^2 / (s+^2 + s-^2) in each domain; the
    expression is symmetric in the two widths so the slot convention of
    position_widths does not matter here. v_min is dimensionless
    (mm^2 * 1/mm^2); values below 1/4 are non-separable.
    """
    pos = position_widths(model)
    mom = ((model.sigma_q_plus_x, model.sigma_q_minus_x),
           (model.sigma_q_plus_y, model.sigma_q_minus_y))

    def axis(i):
        d2_pos = _paired_variance(*pos[i])          # um^2
        d2_mom = _paired_variance(*mom[i])          # 1/mm^2
        return AxisPrediction(
            delta_pos_um=math.sqrt(d2_pos),
            delta_mom_per_mm=math.sqrt(d2_mom),
            v_min=d2_pos * 1e-6 * d2_mom)

    return EprPrediction(x=axis(0), y=axis(1))


def _paired_variance(a: float, b: float) -> float:
    return 2.0 * a * a * b * b / (a * a + b * b)
