"""Photon-pair simulation and coincidence analysis for time-tagging SPAD
cameras: a double-Gaussian pair source, a frame-based sensor Monte Carlo,
windowed pixel-pair correlation with accidental/cross-talk corrections, and
inferred-variance evaluation of the corrected tensors.
"""

from .correlator import (
    CorrectedG2,
    CorrelationAccumulator,
    CrosstalkMap,
    accumulate,
    correct_crosstalk,
    estimate_accidentals,
    estimate_crosstalk,
    linear_to_pixel,
    mask_neighbors,
    normalize,
    project_axes,
    project_sum_diff,
)
from .epr import (
    EprReport,
    JointTable,
    build_joint_table,
    conditionals_and_marginal,
    evaluate_epr,
    inferred_variance_gauss1d,
    inferred_variance_gauss2d,
    inferred_variance_numerical,
    inferred_variance_peaks,
    v_min,
    violates,
)
from .errors import (
    ConfigError,
    DataError,
    NumericError,
    SpadError,
)
from .eventfile import (
    EventFileReader,
    EventFileWriter,
    read_header,
)
from .fitting import damped_least_squares, fit_gaussian_1d, fit_gaussian_2d
from .optics import (
    DoubleGaussianModel,
    OpticalMapping,
    map_sensor_to_object,
)
from .pipeline import (
    PairStudyResult,
    accumulate_file,
    correct_chain,
    run_pair_study,
    simulate_accumulator,
    simulate_to_file,
)
from .sensor import (
    CrosstalkSpec,
    FrameBatch,
    SensorConfig,
    draw_pixel_offsets,
    simulate_frames,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
