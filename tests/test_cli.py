import csv
import json

import numpy as np
import pytest

from helpers import (
    oracle_estimate_accidentals,
    oracle_normalize,
    oracle_subtract_accidentals,
    save_older_corrected,
    sum_diff_route_profiles,
)
from spadcorr import arraystore, epr, sensor
from spadcorr import config as cfgmod
from spadcorr.cli import build_parser, main
from spadcorr.correlator import CorrectedG2, CorrelationAccumulator
from spadcorr.epr import v_min
from spadcorr.sensor import CrosstalkMap

CFG_TEXT = """\
run.frames = 100000
run.pairs_per_frame = 0.5
run.seed = 5
correct.apply_crosstalk = false
correct.characterization_frames = 100000
"""


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One simulated near/far workspace shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "run.cfg"
    cfg.write_text(CFG_TEXT)
    paths = {"root": root, "cfg": cfg}
    for arm in ("near", "far"):
        evt = root / f"{arm}.evt"
        acc = root / f"{arm}.acc.blk"
        g2 = root / f"{arm}.g2.blk"
        assert main(["simulate", "--config", str(cfg), "--mapping", arm,
                     "--out", str(evt)]) == 0
        assert main(["correlate", "--in", str(evt), "--out", str(acc)]) == 0
        assert main(["correct", "--in", str(acc), "--out", str(g2),
                     "--no-crosstalk"]) == 0
        paths[f"{arm}_evt"] = evt
        paths[f"{arm}_acc"] = acc
        paths[f"{arm}_g2"] = g2
    return paths


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestStageCommands:
    def test_simulate_wrote_event_files(self, ws):
        assert ws["near_evt"].stat().st_size > 36
        assert ws["far_evt"].stat().st_size > 36

    def test_correlate_container_kind(self, ws):
        _, meta = arraystore.load_arrays(ws["near_acc"])
        assert meta["kind"] == "accumulator"
        assert meta["n_frames"] == 100000
        assert meta["mapping_mode"] == "near"

    def test_correct_container_flags(self, ws):
        _, meta = arraystore.load_arrays(ws["far_g2"])
        assert meta["kind"] == "corrected_g2"
        assert meta["flags"] == ["raw", "accidental_subtracted",
                                 "neighbor_masked"]

    def test_epr_json(self, ws, capsys):
        assert main(["epr", "--near", str(ws["near_g2"]),
                     "--far", str(ws["far_g2"]), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["methods"]) == {"numerical", "gauss1d", "gauss2d",
                                          "peaks"}
        for m in report["methods"].values():
            assert isinstance(m["violated_x"], bool)
        assert "expected" not in report or report["expected"] is None

    def test_epr_expected_block(self, ws, capsys):
        assert main(["epr", "--near", str(ws["near_g2"]),
                     "--far", str(ws["far_g2"]), "--config", str(ws["cfg"]),
                     "--expected", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        targets = cfgmod.target_widths(cfgmod.load_config(ws["cfg"]))
        assert report["expected"] == {
            **targets,
            "v_x": v_min(targets["delta_x_um"] ** 2,
                         targets["delta_qx_per_mm"] ** 2),
            "v_y": v_min(targets["delta_y_um"] ** 2,
                         targets["delta_qy_per_mm"] ** 2)}

    def test_epr_reads_containers_with_ordered_share(self, ws, tmp_path,
                                                     capsys):
        # what correct wrote while CorrectedG2 kept values_later: the same
        # arrays and meta, plus the accidental-subtracted ordered share
        old = {}
        for arm in ("near", "far"):
            acc = CorrelationAccumulator.load(ws[f"{arm}_acc"])
            later = oracle_subtract_accidentals(
                oracle_normalize(acc),
                oracle_estimate_accidentals(acc, "shifted_window"))
            old[arm] = tmp_path / f"{arm}.g2.blk"
            save_older_corrected(CorrectedG2.load(ws[f"{arm}_g2"]),
                                 old[arm], values_later=later.values_later)
            assert "values_later" in arraystore.load_arrays(old[arm])[0]
        reports = []
        for near, far in ((ws["near_g2"], ws["far_g2"]),
                          (old["near"], old["far"])):
            assert main(["epr", "--near", str(near), "--far", str(far),
                         "--json"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_epr_text(self, ws, capsys):
        assert main(["epr", "--near", str(ws["near_g2"]),
                     "--far", str(ws["far_g2"])]) == 0
        text = capsys.readouterr().out
        for name in ("numerical", "gauss1d", "gauss2d", "peaks"):
            assert name in text
        assert "*" in text

    def test_correlate_counts_pairs_without_a_tensor(self, ws, tmp_path,
                                                     capsys, monkeypatch):
        out = tmp_path / "far.acc.blk"
        tensor = CorrelationAccumulator.tensor

        def refuse(*args, **kwargs):
            raise AssertionError("correlate derived a dense tensor")

        monkeypatch.setattr(CorrelationAccumulator, "tensor", refuse)
        assert main(["correlate", "--in", str(ws["far_evt"]),
                     "--out", str(out)]) == 0
        acc = CorrelationAccumulator.load(out)
        pairs = int(tensor(acc, "g2").sum())
        assert pairs > 0
        assert capsys.readouterr().out == (
            f"wrote {out}: {acc.n_frames} frames, {pairs} windowed pair "
            f"counts\n")

    def test_crosstalk_map_save_and_reuse(self, ws):
        map_path = ws["root"] / "far.map.blk"
        out = ws["root"] / "far-xt.g2.blk"
        assert main(["correct", "--in", str(ws["far_acc"]),
                     "--out", str(out),
                     "--save-crosstalk-map", str(map_path)]) == 0
        assert map_path.exists()
        _, meta = arraystore.load_arrays(out)
        assert "crosstalk_corrected" in meta["flags"]
        reused = ws["root"] / "far-xt2.g2.blk"
        assert main(["correct", "--in", str(ws["far_acc"]),
                     "--out", str(reused),
                     "--crosstalk-map", str(map_path)]) == 0
        a = arraystore.load_arrays(out)[0]["values"]
        b = arraystore.load_arrays(reused)[0]["values"]
        np.testing.assert_array_equal(a, b)


    def test_simulate_seed_is_run_seed(self, ws, tmp_path, capsys):
        """--seed sets run.seed, which also draws the pixel offsets, and
        --workers sets run.workers, which cannot change the file."""
        seeded = tmp_path / "seeded.cfg"
        seeded.write_text(CFG_TEXT.replace("run.seed = 5", "run.seed = 7"))
        common = ["simulate", "--mapping", "far", "--frames", "70000"]
        files = {name: tmp_path / f"{name}.evt"
                 for name in ("key", "flag", "workers", "seed5")}
        for name, argv in (
                ("key", ["--config", str(seeded)]),
                ("flag", ["--config", str(ws["cfg"]), "--seed", "7"]),
                ("workers", ["--config", str(seeded), "--workers", "4"]),
                ("seed5", ["--config", str(ws["cfg"])])):
            assert main(common + argv + ["--out", str(files[name])]) == 0
        want = files["key"].read_bytes()
        assert files["flag"].read_bytes() == want
        assert files["workers"].read_bytes() == want
        assert files["seed5"].read_bytes() != want
        out = tmp_path / "none.evt"
        assert main(common + ["--workers", "0", "--out", str(out)]) == 2
        assert "workers must be at least 1" in capsys.readouterr().err
        assert not out.exists()


class TestPipelineCommand:
    def test_report_is_deterministic(self, ws, capsys):
        argv = ["pipeline", "--config", str(ws["cfg"]), "--json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert main(argv + ["--seed", "6"]) == 0
        reseeded = capsys.readouterr().out
        assert reseeded != first
        assert json.loads(reseeded)["meta"]["n_frames_near"] == 100000

    def test_report_out_and_save_prefix(self, ws, capsys):
        report_path = ws["root"] / "report.json"
        prefix = str(ws["root"] / "study")
        assert main(["pipeline", "--config", str(ws["cfg"]), "--json",
                     "--report-out", str(report_path),
                     "--save-prefix", prefix]) == 0
        stdout = capsys.readouterr().out
        assert report_path.read_text() == stdout
        for suffix in ("-near.acc.blk", "-far.acc.blk",
                       "-near.g2.blk", "-far.g2.blk"):
            assert (ws["root"] / f"study{suffix}").stat().st_size > 0
        acc = CorrelationAccumulator.load(prefix + "-near.acc.blk")
        assert acc.mapping_mode == "near"
        # cross-talk stage disabled in the config, so no map is saved
        assert not (ws["root"] / "study-crosstalk.blk").exists()


class TestExport:
    def export(self, ws, src, what, name):
        out = ws["root"] / f"{name}.csv"
        code = main(["export", "--in", str(src), "--what", what,
                     "--out", str(out)])
        return code, out

    def test_dt_hist_scaling_and_peak(self, ws):
        code, out = self.export(ws, ws["far_acc"], "dt-hist", "dt")
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["dt_bins", "coincidences_per_mframe"]
        acc = CorrelationAccumulator.load(ws["far_acc"])
        assert len(rows) == acc.dt_hist.size
        got = {int(d): float(v) for d, v in rows}
        np.testing.assert_allclose(
            [got[i - 254] for i in range(acc.dt_hist.size)],
            acc.dt_hist * 1e6 / acc.n_frames)
        assert max(got, key=got.get) == 0

    def test_g1_rows(self, ws):
        """Every row, values included, of an accumulator's integer counts
        and a corrected container's float rates."""
        for src, cls in (("far_acc", CorrelationAccumulator),
                         ("far_g2", CorrectedG2)):
            code, out = self.export(ws, ws[src], "g1", f"g1-{src}")
            assert code == 0
            header, rows = read_csv(out)
            assert header == ["pixel", "px", "py", "value"]
            g1 = cls.load(ws[src]).g1
            assert rows == [[str(lin), str((lin - 1) % 32 + 1),
                             str((lin - 1) // 32 + 1), str(g1[lin - 1].item())]
                            for lin in range(1, 1025)]
            assert rows[0][:3] == ["1", "1", "1"]
            assert rows[-1][:3] == ["1024", "32", "32"]
            assert {type(v.item()) for v in g1} == {
                "far_acc": {int}, "far_g2": {float}}[src]

    def test_g2_lists_nonzero_cells(self, ws):
        code, out = self.export(ws, ws["far_g2"], "g2", "g2")
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["p1", "p2", "value"]
        values = arraystore.load_arrays(ws["far_g2"])[0]["values"]
        assert len(rows) == int(np.count_nonzero(values))

    @pytest.mark.parametrize("what,header", [
        ("proj-x", ["px1", "px2", "value"]),
        ("proj-y", ["py1", "py2", "value"]),
        ("sum-map", ["px1_plus_px2", "py1_plus_py2", "value"]),
        ("diff-map", ["px1_minus_px2", "py1_minus_py2", "value"]),
        ("peaks", ["axis", "profile", "pixel_coordinate", "value"]),
    ])
    def test_projection_headers(self, ws, what, header):
        code, out = self.export(ws, ws["far_g2"], what, what)
        assert code == 0
        got, rows = read_csv(out)
        assert got == header
        assert rows

    def test_projection_row_counts(self, ws):
        _, out = self.export(ws, ws["far_g2"], "proj-x", "projx-count")
        assert len(read_csv(out)[1]) == 1024
        _, out = self.export(ws, ws["far_g2"], "sum-map", "summap-count")
        assert len(read_csv(out)[1]) == 63 * 63
        _, out = self.export(ws, ws["far_g2"], "peaks", "peaks-count")
        assert len(read_csv(out)[1]) == 2 * (63 + 63)

    def test_peaks_match_sum_diff_maps(self, ws):
        _, out = self.export(ws, ws["far_g2"], "peaks", "peaks-values")
        rows = read_csv(out)[1]
        values = arraystore.load_arrays(ws["far_g2"])[0]["values"]
        for axis in ("x", "y"):
            want = dict(zip(("sum", "diff"),
                            sum_diff_route_profiles(values, 32, 32, axis)))
            for name, prof in want.items():
                got = [float(r[3]) for r in rows
                       if r[0] == axis and r[1] == name]
                np.testing.assert_allclose(got, prof, rtol=1e-12,
                                           atol=1e-12 * np.abs(prof).max())
        coords = [int(r[2]) for r in rows if r[:2] == ["x", "diff"]]
        assert coords == list(range(-31, 32))

    def test_crosstalk_map_export(self, ws):
        map_path = ws["root"] / "far.map.blk"
        if not map_path.exists():
            assert main(["correct", "--in", str(ws["far_acc"]),
                         "--out", str(ws["root"] / "tmp.g2.blk"),
                         "--save-crosstalk-map", str(map_path)]) == 0
        code, out = self.export(ws, map_path, "crosstalk", "xt")
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["dx", "dy", "probability"]
        assert len(rows) == 57 * 57
        offsets = {(int(a), int(b)) for a, b, _ in rows}
        assert (0, 0) in offsets and (-28, 28) in offsets

    def test_dt_hist_needs_accumulator(self, ws):
        code, _ = self.export(ws, ws["far_g2"], "dt-hist", "bad-dt")
        assert code == 2

    def test_kind_mismatch(self, ws):
        code, _ = self.export(ws, ws["far_acc"], "crosstalk", "bad-xt")
        assert code == 2

    def test_corrupted_map_ends_in_exit_code(self, ws, capsys):
        src = ws["root"] / "xt.blk"
        CrosstalkMap(probabilities=np.full((3, 3), 1e-3), radius=1).save(src)
        good = src.read_bytes()
        bad = ws["root"] / "xt-bad.blk"
        codes = set()
        for pos in range(len(good)):
            for delta in (0x01, 0x80, 0xFF):
                blob = bytearray(good)
                blob[pos] ^= delta
                bad.write_bytes(bytes(blob))
                codes.add(self.export(ws, bad, "crosstalk", "xt-bad")[0])
        capsys.readouterr()
        assert codes == {0, 2, 3}

    def test_each_container_is_read_once(self, ws, monkeypatch):
        xt = ws["root"] / "xt-once.blk"
        CrosstalkMap(probabilities=np.full((3, 3), 1e-3), radius=1).save(xt)
        calls = []
        real = arraystore.load_arrays

        def counting(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(arraystore, "load_arrays", counting)
        for src, what in ((ws["far_acc"], "g1"), (ws["far_g2"], "g1"),
                          (xt, "crosstalk")):
            calls.clear()
            assert self.export(ws, src, what, "once")[0] == 0
            assert calls == [str(src)]

    @pytest.mark.parametrize("field,value", [("mapping_mode", "fas"),
                                             ("n_frames", -1)])
    def test_meta_value_out_of_range_exits_3(self, ws, capsys, field, value):
        arrays, meta = arraystore.load_arrays(ws["far_acc"])
        bad = ws["root"] / f"acc-{field}.blk"
        arraystore.save_arrays(bad, arrays, {**meta, field: value})
        code, _ = self.export(ws, bad, "g1", f"bad-{field}")
        assert code == 3
        assert "data error" in capsys.readouterr().err


def test_stage_flag_defaults_come_from_the_schema():
    schema = cfgmod.defaults()
    parser = build_parser()
    correlate = parser.parse_args(["correlate", "--in", "a", "--out", "b"])
    assert (correlate.window, correlate.shift) == (
        schema["correlate.window"], schema["correlate.shift"])
    correct = parser.parse_args(["correct", "--in", "a", "--out", "b"])
    assert (correct.method, correct.mask_radius, correct.inner_window) == (
        schema["correct.accidental_method"], schema["correct.mask_radius"],
        schema["correct.crosstalk_inner_window"])


class TestErrorExits:
    def test_missing_file_is_data_error(self, ws, capsys):
        assert main(["correlate", "--in", str(ws["root"] / "nope.evt"),
                     "--out", str(ws["root"] / "nope.blk")]) == 3
        assert "error" in capsys.readouterr().err

    def test_displaced_window_beyond_frame(self, ws, capsys):
        # shift 300 - window 10 lies past the 255-bin frame's largest |dt|
        assert main(["correlate", "--in", str(ws["far_evt"]),
                     "--shift", "300",
                     "--out", str(ws["root"] / "late.blk")]) == 3
        assert "beyond the frame" in capsys.readouterr().err
        assert not (ws["root"] / "late.blk").exists()

    def test_directory_output_is_io_error(self, ws, capsys):
        assert main(["simulate", "--config", str(ws["cfg"]), "--mapping",
                     "far", "--out", str(ws["root"])]) == 3
        assert main(["correlate", "--in", str(ws["far_evt"]),
                     "--out", str(ws["root"])]) == 3
        assert capsys.readouterr().err.count("io error") == 2

    def test_bad_config_key(self, ws, capsys):
        bad = ws["root"] / "bad.cfg"
        bad.write_text("run.seeed = 2\n")
        assert main(["simulate", "--config", str(bad), "--mapping", "far",
                     "--out", str(ws["root"] / "x.evt")]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["model.sigma_q_plus_x = 2.0",
                                      "run.mapping = near"])
    def test_removed_config_key(self, ws, capsys, line):
        bad = ws["root"] / "removed.cfg"
        bad.write_text(f"run.seed = 2\n{line}\n")
        assert main(["simulate", "--config", str(bad), "--mapping", "far",
                     "--out", str(ws["root"] / "x.evt")]) == 2
        assert "line 2: unknown key" in capsys.readouterr().err

    def test_sensor_beyond_the_pixel_index_is_config_error(self, ws, capsys):
        big = ws["root"] / "big.cfg"
        big.write_text("sensor.n_x = 300\nsensor.n_y = 300\n"
                       "run.frames = 1000\n")
        assert main(["pipeline", "--config", str(big)]) == 2
        assert "65535 pixels" in capsys.readouterr().err

    def test_sensor_beyond_the_event_format_is_config_error(self, ws, capsys):
        """pipeline runs a 64 x 64 sensor; simulate cannot store it."""
        big = ws["root"] / "wide.cfg"
        big.write_text("sensor.n_x = 64\nsensor.n_y = 64\n"
                       "run.frames = 1000\n")
        out = ws["root"] / "wide.evt"
        assert main(["simulate", "--config", str(big), "--mapping", "far",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "64x64 outside format v1 limits" in err
        assert not out.exists()

    def test_inner_window_wider_than_sensor_refused_before_simulating(
            self, ws, capsys, monkeypatch):
        # the default inner window 29 does not fit 16 columns
        narrow = ws["root"] / "narrow.cfg"
        narrow.write_text("sensor.n_x = 16\nrun.frames = 70000\n")

        def refuse(*args, **kwargs):
            raise AssertionError("an arm was simulated")

        monkeypatch.setattr(sensor, "_simulate_group", refuse)
        assert main(["pipeline", "--config", str(narrow)]) == 2
        assert "inner window does not fit" in capsys.readouterr().err

    def test_simulate_needs_mapping(self, ws, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--out", str(ws["root"] / "x.evt")])
        assert exc.value.code == 2
        assert "--mapping" in capsys.readouterr().err

    def test_swapped_tensors_rejected(self, ws, capsys):
        assert main(["epr", "--near", str(ws["far_g2"]),
                     "--far", str(ws["near_g2"])]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("as_json", [True, False])
    def test_failed_estimator_prints_the_report_and_exits_4(
            self, ws, capsys, monkeypatch, as_json):
        """Flat peak profiles fail peaks on both axes; the other methods
        keep their results and the report says what failed."""
        def flat(proj):
            n = proj.shape[0]
            return (2.0 * (n - np.abs(np.arange(2 * n - 1) - (n - 1))),) * 2

        monkeypatch.setattr(epr, "peak_profiles", flat)
        status = "DegenerateInput: flat input has no peak to fit"
        assert main(["epr", "--near", str(ws["near_g2"]),
                     "--far", str(ws["far_g2"])]
                    + ["--json"] * as_json) == 4
        out, err = capsys.readouterr()
        assert "numerical error" in err
        if as_json:
            methods = json.loads(out)["methods"]
            assert methods["peaks"]["status_x"] == status
            assert methods["peaks"]["v_x"] is None
            assert methods["peaks"]["violated_y"] is False
            assert all(methods[m][f"status_{axis}"] == "ok"
                       for m in ("numerical", "gauss1d", "gauss2d")
                       for axis in "xy")
        else:
            assert f"peaks x failed: {status}" in out
            assert f"peaks y failed: {status}" in out

    def test_flags_that_disagree_with_the_mask_exit_3(self, ws, capsys):
        arrays, meta = arraystore.load_arrays(ws["far_g2"])
        bad = ws["root"] / "unmasked-radius.g2.blk"
        arraystore.save_arrays(bad, arrays, {**meta, "mask_radius": None})
        assert main(["epr", "--near", str(ws["near_g2"]),
                     "--far", str(bad)]) == 3
        assert "disagree with mask radius" in capsys.readouterr().err

    def test_contradictory_crosstalk_options_exit_2(self, ws, capsys):
        out = ws["root"] / "contradict.g2.blk"
        saved = ws["root"] / "contradict-map.blk"
        # a map to apply and a skipped stage: argparse refuses the pair
        # before the map's path is opened
        with pytest.raises(SystemExit) as exc:
            main(["correct", "--in", str(ws["far_acc"]), "--out", str(out),
                  "--crosstalk-map", str(ws["root"] / "no-map.blk"),
                  "--no-crosstalk"])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        # a skipped stage has no map to save
        assert main(["correct", "--in", str(ws["far_acc"]), "--out",
                     str(out), "--no-crosstalk", "--save-crosstalk-map",
                     str(saved)]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists() and not saved.exists()

    def test_truncated_event_file(self, ws, capsys):
        clipped = ws["root"] / "clipped.evt"
        clipped.write_bytes(ws["far_evt"].read_bytes()[:-5])
        assert main(["correlate", "--in", str(clipped),
                     "--out", str(ws["root"] / "clipped.blk")]) == 3
        assert "data error" in capsys.readouterr().err
