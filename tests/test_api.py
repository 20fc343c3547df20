"""The public surface keeps FrameBatch as its only in-memory event form."""

import pytest

import spadcorr
from spadcorr import correlator, eventfile, optics, sensor
from spadcorr.eventfile import EventFileReader, EventFileWriter

REMOVED = ("Frame", "frames_to_batch", "SincModel", "PumpProfile",
           "evaluate_delta_kz", "evaluate_joint_density")


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_not_exported(name):
    assert name not in spadcorr.__all__
    for module in (spadcorr, sensor, optics, correlator, eventfile):
        assert not hasattr(module, name), module.__name__


def test_event_file_has_no_per_frame_path():
    assert not hasattr(EventFileWriter, "add_frame")
    assert not hasattr(EventFileReader, "iter_frames")
    assert not hasattr(sensor.FrameBatch, "iter_frames")
