"""Command-line front end.

Subcommands mirror the processing stages: simulate event files, correlate
them into accumulators, run the correction chain, evaluate inferred
variances, or do the whole closed loop in memory. Exit codes: 0 success,
2 configuration or argument problems, 3 malformed or inconsistent data,
4 numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

from . import arraystore
from . import config as cfgmod
from .correlator import (
    MFRAMES,
    CorrectedG2,
    CorrelationAccumulator,
    CrosstalkMap,
    linear_to_pixel,
    peak_profiles,
    project_axes,
    project_sum_diff,
)
from .epr import evaluate_epr
from .errors import ConfigError, DataError, NumericError
from .pipeline import (
    accumulate_file,
    correct_chain,
    run_pair_study,
    simulate_to_file,
)


def _load_settings(path):
    return cfgmod.load_config(path) if path else cfgmod.defaults()


def _cmd_simulate(args):
    settings = _load_settings(args.config)
    total = simulate_to_file(settings, args.mapping, args.out,
                             frames=args.frames, seed=args.seed,
                             workers=args.workers)
    print(f"wrote {args.out}: {total} frames, {args.mapping} mapping")
    return 0


def _cmd_correlate(args):
    acc = accumulate_file(args.infile, window=args.window, shift=args.shift)
    acc.save(args.out)
    print(f"wrote {args.out}: {acc.n_frames} frames, "
          f"{int(acc.g2.sum())} windowed pair counts")
    return 0


def _cmd_correct(args):
    acc = CorrelationAccumulator.load(args.infile)
    cmap = CrosstalkMap.load(args.crosstalk_map) if args.crosstalk_map \
        else None
    corr, used = correct_chain(
        acc, accidental_method=args.method, crosstalk_map=cmap,
        estimate_map=not args.no_crosstalk and cmap is None,
        mask_radius=args.mask_radius, inner_window=args.inner_window)
    corr.save(args.out)
    if args.save_crosstalk_map and used is not None:
        used.save(args.save_crosstalk_map)
    print(f"wrote {args.out}: flags {'+'.join(corr.flags)}")
    return 0


def _cmd_epr(args):
    settings = _load_settings(args.config)
    corr_near = CorrectedG2.load(args.near)
    corr_far = CorrectedG2.load(args.far)
    expected = cfgmod.target_widths(settings) if args.expected else None
    report = evaluate_epr(
        corr_near, corr_far,
        cfgmod.build_mapping(settings, "near"),
        cfgmod.build_mapping(settings, "far"),
        pixel_pitch_um=settings["sensor.pixel_pitch_um"],
        min_column_fraction=settings["epr.min_column_fraction"],
        expected=expected)
    print(report.to_json(indent=2) if args.json else report.to_text())
    return 0


def _cmd_pipeline(args):
    settings = _load_settings(args.config)
    if args.seed is not None:
        settings["run.seed"] = args.seed
    result = run_pair_study(settings)
    if args.save_prefix:
        result.acc_near.save(f"{args.save_prefix}-near.acc.blk")
        result.acc_far.save(f"{args.save_prefix}-far.acc.blk")
        result.corr_near.save(f"{args.save_prefix}-near.g2.blk")
        result.corr_far.save(f"{args.save_prefix}-far.g2.blk")
        if result.crosstalk_map is not None:
            result.crosstalk_map.save(f"{args.save_prefix}-crosstalk.blk")
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write(result.report.to_json(indent=2))
            fh.write("\n")
    print(result.report.to_json(indent=2) if args.json
          else result.report.to_text())
    return 0


def _export_rows(kind, arrays, meta, what):
    if what == "dt-hist":
        if "dt_hist" not in arrays:
            raise ConfigError("container has no dt histogram")
        half = meta["bins_per_frame"] - 1
        per_mframe = MFRAMES / max(meta["n_frames"], 1)
        hist = arrays["dt_hist"]
        return (["dt_bins", "coincidences_per_mframe"],
                [(int(d - half), c * per_mframe) for d, c in enumerate(hist)])
    if what == "g1":
        g1 = arrays["g1"]
        n_x, n_y = meta["n_x"], meta["n_y"]
        rows = []
        for lin in range(1, g1.size + 1):
            px, py = linear_to_pixel(lin, n_x, n_y)
            rows.append((lin, px, py, g1[lin - 1].item()))
        return ["pixel", "px", "py", "value"], rows
    values = arrays["g2"] if kind == "accumulator" else arrays["values"]
    n_x, n_y = meta["n_x"], meta["n_y"]
    if what == "g2":
        p1, p2 = np.nonzero(values)
        return (["p1", "p2", "value"],
                [(int(a + 1), int(b + 1), values[a, b].item())
                 for a, b in zip(p1, p2)])
    if what in ("proj-x", "proj-y"):
        g2x, g2y = project_axes(values, n_x, n_y)
        proj = g2x if what == "proj-x" else g2y
        label = "x" if what == "proj-x" else "y"
        rows = [(i + 1, j + 1, proj[i, j].item())
                for i in range(proj.shape[0]) for j in range(proj.shape[1])]
        return [f"p{label}1", f"p{label}2", "value"], rows
    if what == "peaks":
        rows = []
        for axis, n, proj in zip("xy", (n_x, n_y),
                                 project_axes(values, n_x, n_y)):
            for name, prof, base in zip(("sum", "diff"), peak_profiles(proj),
                                        (2, 1 - n)):
                rows.extend((axis, name, base + i, prof[i].item())
                            for i in range(prof.size))
        return ["axis", "profile", "pixel_coordinate", "value"], rows
    if what in ("sum-map", "diff-map"):
        sum_map, diff_map = project_sum_diff(values, n_x, n_y)
        if what == "sum-map":
            rows = [(sx + 2, sy + 2, sum_map[sx, sy].item())
                    for sx in range(sum_map.shape[0])
                    for sy in range(sum_map.shape[1])]
            return ["px1_plus_px2", "py1_plus_py2", "value"], rows
        rows = [(dx - n_x + 1, dy - n_y + 1, diff_map[dx, dy].item())
                for dx in range(diff_map.shape[0])
                for dy in range(diff_map.shape[1])]
        return ["px1_minus_px2", "py1_minus_py2", "value"], rows
    raise ConfigError(f"cannot export {what!r} from a {kind} container")


_CONTAINERS = {"accumulator": CorrelationAccumulator,
               "corrected_g2": CorrectedG2, "crosstalk_map": CrosstalkMap}


def _cmd_export(args):
    arrays, meta = arraystore.load_arrays(args.infile)
    kind = meta.get("kind")
    if kind not in _CONTAINERS:
        raise ConfigError(f"unknown container kind {kind!r}")
    _CONTAINERS[kind].load(args.infile)   # checks every field used below
    if kind == "crosstalk_map":
        if args.what != "crosstalk":
            raise ConfigError("cross-talk maps only export 'crosstalk'")
        prob = arrays["probabilities"]
        r = meta["radius"]
        header = ["dx", "dy", "probability"]
        rows = [(dx - r, dy - r, prob[dx, dy].item())
                for dx in range(prob.shape[0]) for dy in range(prob.shape[1])]
    else:
        if args.what == "crosstalk":
            raise ConfigError("only cross-talk maps export 'crosstalk'")
        header, rows = _export_rows(kind, arrays, meta, args.what)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {args.out}: {len(rows)} rows")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spadcorr",
        description="photon-pair simulation and coincidence analysis "
                    "for time-tagging SPAD arrays")
    sub = parser.add_subparsers(dest="command", required=True)
    schema = cfgmod.defaults()

    p = sub.add_parser("simulate", help="simulate an event file")
    p.add_argument("--config", help="key=value settings file")
    p.add_argument("--mapping", required=True, choices=("near", "far"))
    p.add_argument("--out", required=True, help="event file to write")
    p.add_argument("--frames", type=int, help="override run.frames")
    p.add_argument("--seed", type=int, help="override run.seed")
    p.add_argument("--workers", type=int, help="override run.workers")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("correlate", help="accumulate an event file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True, help="accumulator container")
    p.add_argument("--window", type=int, default=schema["correlate.window"])
    p.add_argument("--shift", type=int, default=schema["correlate.shift"])
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("correct", help="run the correction chain")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True, help="corrected tensor container")
    p.add_argument("--method", default=schema["correct.accidental_method"],
                   choices=("shifted_window", "g1_product"))
    p.add_argument("--mask-radius", type=int,
                   default=schema["correct.mask_radius"])
    p.add_argument("--inner-window", type=int,
                   default=schema["correct.crosstalk_inner_window"])
    p.add_argument("--crosstalk-map",
                   help="apply a previously saved map instead of estimating")
    p.add_argument("--no-crosstalk", action="store_true",
                   help="skip the cross-talk stage")
    p.add_argument("--save-crosstalk-map")
    p.set_defaults(func=_cmd_correct)

    p = sub.add_parser("epr", help="evaluate inferred variances")
    p.add_argument("--near", required=True, help="near-field tensor")
    p.add_argument("--far", required=True, help="far-field tensor")
    p.add_argument("--config")
    p.add_argument("--json", action="store_true")
    p.add_argument("--expected", action="store_true",
                   help="append the config's target widths")
    p.set_defaults(func=_cmd_epr)

    p = sub.add_parser("pipeline", help="full closed loop in memory")
    p.add_argument("--config")
    p.add_argument("--seed", type=int, help="override run.seed")
    p.add_argument("--json", action="store_true")
    p.add_argument("--report-out", help="also write the JSON report here")
    p.add_argument("--save-prefix",
                   help="save accumulators, tensors and the cross-talk map")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("export", help="dump container contents as CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--what", required=True,
                   choices=("dt-hist", "g1", "g2", "proj-x", "proj-y",
                            "sum-map", "diff-map", "peaks", "crosstalk"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
