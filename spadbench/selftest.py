"""Self-test of the benchmark's output checks.

    python3 spadbench/selftest.py

Runs one round of each workload at a tiny size, requires every check to
accept the real outputs, then plants one wrong result at a time (a g2
count moved, a width off by 20 %, a byte appended to an event file, ...)
and requires the check to reject it. Exits 0 when every planted fault is
caught. Takes about a minute.
"""

from __future__ import annotations

import copy
import sys
import tempfile
from pathlib import Path

import run

run.import_spadcorr()

import checks  # noqa: E402
import workloads  # noqa: E402

CONFIG = run.ROOT / "default.cfg"
# Short arms need a higher pair rate for the fits to converge.
TINY = {"run.frames": 2 * workloads.CHUNK, "run.pairs_per_frame_far": 0.5,
        "run.pairs_per_frame_near": 0.5,
        "correct.characterization_frames": workloads.CHUNK}


def move_count(arr):
    """Move one count from the largest cell to the next: totals unchanged."""
    flat = arr.reshape(-1)
    i = int(flat.argmax())
    flat[i] -= 1
    flat[(i + 1) % flat.size] += 1


def expect_rejected(label, check, *args):
    try:
        check(*args)
    except checks.CheckFailed as exc:
        print(f"  rejected  {label}: {exc}")
        return True
    print(f"  MISSED    {label}")
    return False


def closed_loop(tmp):
    wl = workloads.ClosedLoop(CONFIG, 103, tmp, overrides=TINY)
    wl.setup()
    rnd, result = wl.run_round()
    assert rnd.failures == [], rnd.failures
    wl.check(result)
    wl.check_run()

    def planted(edit):
        bad = copy.deepcopy(result)
        edit(bad)
        return bad

    def setval(method, key, value):
        def edit(res):
            res.report.methods[method][key] = value
        return edit

    def diag(res):
        res.acc_far.g2[5, 5] += 1

    def tilt(res):
        res.acc_near.dt_hist[0] += 1

    def frames(res):
        res.acc_far.n_frames += 1

    cases = [
        ("g2 count moved (far)", planted(lambda r: move_count(r.acc_far.g2))),
        ("g2_shifted count moved (near)",
         planted(lambda r: move_count(r.acc_near.g2_shifted))),
        ("g2 diagonal count", planted(diag)),
        ("dt_hist tilted", planted(tilt)),
        ("frame count off by one", planted(frames)),
        ("gauss2d width 20 % over target",
         planted(setval("gauss2d", "delta_x_um", 1.2 * 37.3))),
        ("peaks momentum width 20 % under target",
         planted(setval("peaks", "delta_qy_per_mm", 0.8 * 3.4))),
        ("peaks V above 0.25", planted(setval("peaks", "v_x", 0.3))),
        ("gauss2d V at 0.25", planted(setval("gauss2d", "v_y", 0.25))),
    ]
    ok = all([expect_rejected(label, wl.check, bad) for label, bad in cases])
    for label, acc, want in wl.first_chunks():
        for name in ("g2", "g2_later", "g1"):
            bad = copy.deepcopy(acc)
            move_count(getattr(bad, name))
            ok &= expect_rejected(f"{label}: {name} count moved",
                                  checks.same_accumulator, bad, want, label)
    return ok


def file_path(tmp):
    wl = workloads.FilePath(CONFIG, 103, tmp)
    wl.frames = 2 * workloads.CHUNK
    wl.setup()
    rnd, arms = wl.run_round()
    assert len(rnd.failures) == 2, rnd.failures
    print("  expected failures: " + "; ".join(rnd.failures))
    wl.check(arms)

    def planted(edit):
        bad = copy.deepcopy(arms)
        edit(bad)
        return bad

    def value(bad):
        bad["near"][1].values[3, 40] += 1e-3

    def unmask(bad):
        bad["far"][1].masked[0, 1] = False

    evt = tmp / "far.evt"
    ok = all([
        expect_rejected("decoded g2 count moved", wl.check,
                        planted(lambda b: move_count(b["far"][0].g2))),
        expect_rejected("decoded g1 count moved", wl.check,
                        planted(lambda b: move_count(b["near"][0].g1))),
        expect_rejected("corrected value changed", wl.check, planted(value)),
        expect_rejected("mask cell cleared", wl.check, planted(unmask)),
    ])
    with open(evt, "ab") as fh:
        fh.write(b"\0")
    ok &= expect_rejected("event file one byte longer", wl.check, arms)
    return ok


def analysis(tmp):
    wl = workloads.Analysis(CONFIG, 103, tmp, overrides=dict(
        TINY, **{"run.pairs_per_frame_far": 1.0,
                 "run.pairs_per_frame_near": 1.0}))
    wl.setup()
    rnd, reports = wl.run_round()
    assert rnd.failures == [], rnd.failures
    wl.check(reports)
    shifted = next(v for v in reports if v[0] == "shifted_window")
    other = next(v for v in reports if v[0] == "g1_product")

    def planted(variant, method, key, value):
        bad = copy.deepcopy(reports)
        bad[variant].methods[method][key] = value
        return bad

    return all([
        expect_rejected("numerical V not finite", wl.check,
                        planted(other, "numerical", "v_x", float("nan"))),
        expect_rejected("gauss2d V above 0.25", wl.check,
                        planted(other, "gauss2d", "v_y", 0.4)),
        expect_rejected("shifted_window peaks width 20 % over target",
                        wl.check,
                        planted(shifted, "peaks", "delta_y_um", 1.2 * 37.3)),
    ])


def main() -> int:
    ok = True
    (run.HERE / "out").mkdir(exist_ok=True)
    for name, test in (("closed_loop", closed_loop), ("file_path", file_path),
                       ("analysis", analysis)):
        print(name)
        with tempfile.TemporaryDirectory(dir=run.HERE / "out",
                                         prefix="selftest-") as tmp:
            ok &= test(Path(tmp))
    print("all planted faults rejected" if ok else "SOME PLANTED FAULTS MISSED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
