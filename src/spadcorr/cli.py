"""Command-line front end.

Subcommands mirror the processing stages: simulate event files, correlate
them into accumulators, run the correction chain, evaluate inferred
variances, or do the whole closed loop in memory. Exit codes: 0 success,
2 configuration or argument problems, 3 malformed or inconsistent data,
4 numerical failures. An estimator that fails does not stop epr or
pipeline: they print the whole report, which names each failed method and
axis with its reason, and then exit 4.
"""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import arraystore
from . import config as cfgmod
from .correlator import (
    MFRAMES,
    CorrectedG2,
    CorrelationAccumulator,
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
from .sensor import CrosstalkMap


def _load_settings(path, options=()):
    # the config file or the defaults, under the options that were given
    settings = cfgmod.load_config(path) if path else cfgmod.defaults()
    return settings | {key: value for key, value in dict(options).items()
                       if value is not None}


def _cmd_simulate(args):
    settings = _load_settings(args.config, {"run.seed": args.seed,
                                            "run.workers": args.workers})
    total = simulate_to_file(settings, args.mapping, args.out,
                             frames=args.frames)
    print(f"wrote {args.out}: {total} frames, {args.mapping} mapping")
    return 0


def _cmd_correlate(args):
    acc = accumulate_file(args.infile, window=args.window, shift=args.shift)
    acc.save(args.out)
    mid = acc.bins_per_frame - 1    # dt_hist counts both orders, as g2
    pairs = int(acc.dt_hist[mid - acc.window:mid + acc.window + 1].sum())
    print(f"wrote {args.out}: {acc.n_frames} frames, "
          f"{pairs} windowed pair counts")
    return 0


def _cmd_correct(args):
    if args.no_crosstalk and args.save_crosstalk_map:
        raise ConfigError("--save-crosstalk-map has no map to save with "
                          "--no-crosstalk")
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
    return _print_report(report, args.json)


def _cmd_pipeline(args):
    result = run_pair_study(_load_settings(args.config,
                                           {"run.seed": args.seed}))
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
    return _print_report(result.report, args.json)


def _print_report(report, as_json):
    # the report, then exit 4 if any (method, axis) result failed
    print(report.to_json(indent=2) if as_json else report.to_text())
    failed = report.failures()
    if failed:
        print(f"numerical error: {len(failed)} estimator results failed, "
              f"first {failed[0][0]} {failed[0][1]}: {failed[0][2]}",
              file=sys.stderr)
        return 4
    return 0


def _grid_rows(table, first_i, first_j):
    # (i + first_i, j + first_j, value) of every cell of a 2-D table
    return [(i + first_i, j + first_j, v.item())
            for (i, j), v in np.ndenumerate(table)]


def _export_rows(kind, obj, what):
    if (kind == "crosstalk_map") != (what == "crosstalk"):
        raise ConfigError(
            "only cross-talk maps export 'crosstalk'" if what == "crosstalk"
            else "cross-talk maps only export 'crosstalk'")
    if what == "crosstalk":
        r = -obj.radius
        return ["dx", "dy", "probability"], _grid_rows(obj.probabilities, r, r)
    acc = kind == "accumulator"
    if what == "dt-hist":
        if not acc:
            raise ConfigError("container has no dt histogram")
        half = obj.bins_per_frame - 1
        per_mframe = MFRAMES / max(obj.n_frames, 1)
        hist = obj.dt_hist
        return (["dt_bins", "coincidences_per_mframe"],
                [(int(d - half), c * per_mframe) for d, c in enumerate(hist)])
    if what == "g1":
        lin = np.arange(1, obj.g1.size + 1)
        px, py = linear_to_pixel(lin, obj.n_x, obj.n_y)
        return (["pixel", "px", "py", "value"],
                list(zip(lin.tolist(), px.tolist(), py.tolist(),
                         obj.g1.tolist())))
    values = obj.tensor("g2") if acc else obj.values
    n_x, n_y = obj.n_x, obj.n_y
    if what == "g2":
        p1, p2 = np.nonzero(values)
        return (["p1", "p2", "value"],
                [(int(a + 1), int(b + 1), values[a, b].item())
                 for a, b in zip(p1, p2)])
    if what in ("proj-x", "proj-y"):
        axis = what[-1]
        proj = project_axes(values, n_x, n_y)["xy".index(axis)]
        return [f"p{axis}1", f"p{axis}2", "value"], _grid_rows(proj, 1, 1)
    if what == "peaks":
        rows = []
        for axis, n, proj in zip("xy", (n_x, n_y),
                                 project_axes(values, n_x, n_y)):
            for name, prof, base in zip(("sum", "diff"), peak_profiles(proj),
                                        (2, 1 - n)):
                rows.extend((axis, name, base + i, prof[i].item())
                            for i in range(prof.size))
        return ["axis", "profile", "pixel_coordinate", "value"], rows
    if what == "sum-map":
        return (["px1_plus_px2", "py1_plus_py2", "value"],
                _grid_rows(project_sum_diff(values, n_x, n_y)[0], 2, 2))
    if what == "diff-map":
        return (["px1_minus_px2", "py1_minus_py2", "value"], _grid_rows(
            project_sum_diff(values, n_x, n_y)[1], 1 - n_x, 1 - n_y))
    raise ConfigError(f"cannot export {what!r} from a {kind} container")


_CONTAINERS = {"accumulator": CorrelationAccumulator,
               "corrected_g2": CorrectedG2, "crosstalk_map": CrosstalkMap}


def _cmd_export(args):
    arrays, meta = arraystore.load_arrays(args.infile)
    kind = meta.get("kind")
    if kind not in _CONTAINERS:
        raise ConfigError(f"unknown container kind {kind!r}")
    header, rows = _export_rows(
        kind, _CONTAINERS[kind]._from_arrays(arrays, meta), args.what)
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
    crosstalk = p.add_mutually_exclusive_group()
    crosstalk.add_argument(
        "--crosstalk-map",
        help="apply a previously saved map instead of estimating")
    crosstalk.add_argument("--no-crosstalk", action="store_true",
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
