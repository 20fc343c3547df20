"""Benchmark entry point for spadcorr.

    python3 spadbench/run.py --workload closed_loop --seed 103 --seconds 25 --trace 0

Builds spadcorr from the checkout's ``src/`` (nothing is installed), runs
the workload's set-up several times, then whole rounds of its operations
until ``--seconds`` have passed, and checks every round's outputs. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the per-layer ones, from spans recorded
around spadcorr's public functions. Temporary files live in a
directory under ``spadbench/out/`` that is removed before exit; a JSON
record of the run (and the trace, when traced) is written next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("closed_loop", "file_path", "analysis"))
    p.add_argument("--seed", type=int, default=103)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_spadcorr():
    """Put the checkout's src/ first on the path; refuse any other copy."""
    src = ROOT / "src"
    if not (src / "spadcorr" / "__init__.py").is_file():
        sys.exit(f"spadbench: no spadcorr sources under {src}")
    if not (ROOT / "default.cfg").is_file():
        sys.exit(f"spadbench: no default.cfg in {ROOT}")
    sys.path.insert(0, str(src))
    import spadcorr
    if Path(spadcorr.__file__).resolve().parent != (src / "spadcorr").resolve():
        sys.exit(f"spadbench: imported spadcorr from {spadcorr.__file__}")


def measure(workload, seconds, tracer=None):
    """Set up, run rounds for `seconds`, check; return the run record."""
    setup_s = []
    for i in range(workload.setups):
        context = (tracer.active(f"setup{i}") if tracer
                   else contextlib.nullcontext())
        start = time.perf_counter()
        with context:
            workload.setup()
        setup_s.append(time.perf_counter() - start)

    rounds, problems = [], []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        segment = f"round{len(rounds)}"
        tracing = (lambda seg=segment: tracer.active(seg)) if tracer else None
        rnd, out = workload.run_round(tracing)
        if tracer:
            tracer.close(segment)
        rounds.append(rnd)
        try:
            workload.check(out)
        except checks.CheckFailed as exc:
            problems.append(f"round {len(rounds) - 1}: {exc}")
        del out
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        workload.check_run()
    except checks.CheckFailed as exc:
        problems.append(str(exc))
    return {"setup_s": setup_s, "rounds": rounds, "problems": problems,
            "peak_rss_mb": peak_rss_mb}


def end_to_end(record) -> dict:
    rounds = record["rounds"]
    wall = statistics.median(r.wall_s for r in rounds)
    rate = statistics.median(r.events / r.wall_s for r in rounds)
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "events_per_s": {"value": rate, "unit": "1/s"},
        "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(record["setup_s"]),
                    "unit": "s"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_spadcorr()
    import tracing
    import workloads

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer = tracing.install(tracing.Tracer()) if args.trace else None
    try:
        with tempfile.TemporaryDirectory(dir=out_dir, prefix="tmp-") as tmp:
            workload = workloads.WORKLOADS[args.workload](
                ROOT / "default.cfg", args.seed, Path(tmp))
            record = measure(workload, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    rounds = record["rounds"]
    if tracer:
        layers = tracing.layer_metrics(
            tracer, [f"round{i}" for i in range(len(rounds))])
        metrics = {name: {"value": value, "unit": tracing.unit_of(name)}
                   for name, value in layers.items()}
    else:
        metrics = end_to_end(record)
    failures = [f for r in rounds for f in r.failures]
    result = {"correct": not record["problems"],
              "attempted": sum(r.attempted for r in rounds),
              "failed": len(failures),
              "metrics": metrics}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "result": result,
               "setup_s": record["setup_s"],
               "round_wall_s": [r.wall_s for r in rounds],
               "round_cpu_s": [r.cpu_s for r in rounds],
               "round_events": [r.events for r in rounds],
               "cpu_s": time.process_time(),
               "problems": record["problems"],
               "failures": sorted(set(failures))}
    (out_dir / f"{stem}.json").write_text(json.dumps(details, indent=1))
    if tracer:
        (out_dir / f"{stem}.trace.json").write_text(json.dumps(tracer.dump()))
    for line in record["problems"]:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    for line in sorted(set(failures)):
        print(f"failed operation: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
