"""Transverse two-photon optics for a collinear downconversion source.

Models the joint transverse-momentum density of a photon pair created in a
periodically poled crystal, plus the imaging geometry that puts either the
source plane (near field, magnification M) or the pump focal plane (far field,
Fourier lens f) onto the sensor.

The density is a double-Gaussian surrogate of the pump envelope times the
phase-matching sinc: one standard deviation per axis for each of the centroid
and difference momentum coordinates q+- = (q1 +- q2)/sqrt(2). It is exact in
the limit where the sinc is well approximated by a Gaussian, and it is the
model the simulator draws from and the analysis chain is calibrated against.

Units are fixed package-wide: transverse momenta in 1/mm, lengths on the
sensor in um, crystal length in mm, grating period in um, angular frequencies
in rad/s.
"""

from __future__ import annotations

import dataclasses
import math
import numpy as np

from .errors import ConfigError


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
