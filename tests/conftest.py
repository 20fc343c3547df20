import numpy as np
import pytest

from spadcorr.optics import DoubleGaussianModel, OpticalMapping

# registry for the acceptance suite: criterion number -> (passed, detail)
ACCEPTANCE_RESULTS = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS[number] = (passed, detail)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[number]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"CRITERION {number}: {verdict} - {detail}")


@pytest.fixture(scope="session")
def reference_model() -> DoubleGaussianModel:
    return DoubleGaussianModel.from_inferred_targets(37.3, 4.0, 37.3, 3.4)


@pytest.fixture(scope="session")
def near_mapping() -> OpticalMapping:
    return OpticalMapping(mode="near", magnification=9.0)


@pytest.fixture(scope="session")
def far_mapping() -> OpticalMapping:
    return OpticalMapping(mode="far", focal_length_mm=150.0,
                          wavelength_nm=810.0)


@pytest.fixture(scope="session")
def reduced_arms(reference_model, near_mapping, far_mapping):
    """Near and far accumulators at reduced statistics (2e5 frames each)."""
    from spadcorr.config import build_sensor, parse_config
    from spadcorr.pipeline import simulate_accumulator
    sensor_cfg = build_sensor(parse_config(""))
    return {mode: simulate_accumulator(reference_model, mapping, sensor_cfg,
                                       n_frames=200_000, pairs_per_frame=0.05,
                                       seed=seed)
            for mode, mapping, seed in (("near", near_mapping, 5),
                                        ("far", far_mapping, 6))}


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)
