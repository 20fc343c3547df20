"""The public surface: FrameBatch is the only in-memory event form, the
config's target widths are the only statement of the model, and helpers
that no pipeline path calls stay deleted."""

import ast
import dataclasses
import inspect
from pathlib import Path

import numpy as np
import pytest

import spadcorr
from spadcorr import (cli, config, correlator, epr, eventfile, fitting, optics,
                      pipeline, sensor)
from spadcorr.eventfile import EventFileReader, EventFileWriter

REMOVED = ("Frame", "frames_to_batch", "SincModel", "PumpProfile",
           "evaluate_delta_kz", "evaluate_joint_density", "sample_pair",
           "_as_qvec", "predict_epr", "AxisPrediction", "EprPrediction",
           "position_widths", "position_widths_by_coordinate",
           "_paired_variance", "_SIGMA_KEYS", "fit_gaussian_1d_columns",
           "_fit_columns_stack", "_column_block", "linear_index",
           "write_events", "PAIR_SLICE", "read_batches", "_projection",
           "_numerical", "_gauss1d", "_gauss2d", "_peaks")


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_not_exported(name):
    assert name not in spadcorr.__all__
    for module in (spadcorr, sensor, optics, correlator, eventfile, config,
                   epr, fitting):
        assert not hasattr(module, name), module.__name__


def test_event_file_has_no_per_frame_path():
    assert not hasattr(EventFileWriter, "add_frame")
    assert not hasattr(EventFileReader, "iter_frames")
    assert not hasattr(sensor.FrameBatch, "iter_frames")


def test_unused_model_helpers_deleted():
    assert not hasattr(sensor.CrosstalkSpec, "nearest")
    assert not hasattr(optics.DoubleGaussianModel, "density")
    assert not hasattr(epr.JointTable, "n")
    assert not hasattr(epr.JointTable, "total")


def test_fits_carry_no_weights_or_covariance():
    fields = {f.name for f in dataclasses.fields(fitting.GaussianFit)}
    assert not fields & {"covariance", "param_names", "stderr"}
    assert not hasattr(fitting.GaussianFit, "stderr")
    assert "covariance" not in {
        f.name for f in dataclasses.fields(fitting.LMResult)}
    x = np.linspace(-5.0, 5.0, 11)
    y = fitting.gauss1d_model([2.0, 0.0, 1.5, 0.1], x)
    with pytest.raises(TypeError, match="weights"):
        fitting.fit_gaussian_1d(x, y, weights=np.ones_like(x))
    with pytest.raises(TypeError, match="weights"):
        fitting.fit_gaussian_2d(np.outer(y, y), x, x, weights=None)


def test_accumulation_has_one_path(capsys):
    assert not hasattr(correlator.CorrelationAccumulator, "merge")
    assert not hasattr(correlator.CorrelationAccumulator, "_add_pairs")
    for fn in (correlator.accumulate, pipeline.accumulate_file):
        assert "workers" not in inspect.signature(fn).parameters
    assert "event_writer" not in inspect.signature(
        pipeline.simulate_accumulator).parameters
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(
            ["correlate", "--in", "a", "--out", "b", "--workers", "2"])
    assert "--workers" in capsys.readouterr().err


def test_event_file_batches_take_no_size():
    """The reader yields one batch per decoded block; no caller sizes it."""
    assert list(inspect.signature(
        EventFileReader.iter_batches).parameters) == ["self"]
    assert list(inspect.signature(pipeline.accumulate_file).parameters) == [
        "path", "window", "shift"]


def test_solver_has_one_form():
    assert list(inspect.signature(
        fitting.damped_least_squares).parameters) == ["fun", "jac", "p0"]
    assert [f.name for f in dataclasses.fields(fitting.LMResult)] == [
        "params", "converged", "iterations"]
    assert not hasattr(fitting.LMResult, "problem")


def test_each_estimator_has_one_form():
    """The traced estimator names take the stacks evaluate_epr solves."""
    params = {name: list(inspect.signature(
        getattr(epr, f"inferred_variance_{name}")).parameters)
        for name in epr.METHODS}
    assert params == {"numerical": ["tables", "conditionals"],
                      "gauss1d": ["tables", "conditionals"],
                      "gauss2d": ["tables"],
                      "peaks": ["profiles"]}
    assert list(inspect.signature(epr.build_joint_table).parameters) == [
        "proj", "corr", "mapping", "pixel_pitch_um", "axis"]


def test_accidental_estimate_takes_no_mask_options():
    assert list(inspect.signature(
        correlator.estimate_accidentals).parameters) == ["acc", "method"]


def imported_but_unused(tree):
    """Names a module imports (as bound in its namespace) and never reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


@pytest.mark.parametrize("name", sorted(
    p.name for p in Path(spadcorr.__file__).parent.glob("*.py")
    if p.name != "__init__.py"))
def test_every_import_is_used(name):
    """__init__.py imports to re-export, so it is not scanned."""
    path = Path(spadcorr.__file__).parent / name
    assert imported_but_unused(ast.parse(path.read_text())) == []
