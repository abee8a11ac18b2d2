"""qhecke benchmark: run one workload, check it, print its metrics.

    python3 perfbench/run.py --workload registry --seed 1 --seconds 40 --trace 0

Run from the repository root. The program is imported from ``src/`` and
driven in-process through ``qhecke.cli.main`` by one client in a closed
loop: each call starts when the previous one has returned. A pass is one
run over the workload's calls; passes repeat until ``--seconds`` is used.

With ``--trace 0`` the result holds the end-to-end metrics: the median
pass time, the peak resident memory of this process, which runs only the
workload, and the median start-up time of fresh interpreters importing
``qhecke``. Both times are scaled to the reference CPU speed by a
calibration loop run right after every timed call (see ``calibrate.py``);
the info line also gives them as measured. With ``--trace 1`` the result holds the
per-layer metrics of one traced pass, made after untraced passes that
give the tracing overhead; the spans are written to
``.bench_build/perfbench/``.

Every operation (one record, sequence or congruence rule) of every pass
is compared with the reference in ``perfbench/reference/``, made from the
seed code by ``make_reference.py``. The last line of standard output is
the JSON result; the line before it records the run's environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads
from metrics import PER_LAYER
from workloads import Call

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 7


def run_pass(calls: list[Call]) -> tuple[float, float, dict[str, str | None]]:
    """Run one pass over the calls.

    Returns the pass's time in ``cli.main``, measured and at reference CPU
    speed (a calibration sample follows each call, see ``calibrate``), and
    a digest per operation. An operation that raised, or that its report
    lacks, gets a digest of None.
    """
    wall = scaled = 0.0
    ops: dict[str, str | None] = {}
    for argv, keys in calls:
        try:
            seconds, got = workloads.call_program(argv)
        except (Exception, SystemExit) as exc:  # an operation failure, counted below
            print(f"{' '.join(argv)}: {type(exc).__name__}: {exc}", file=sys.stderr)
            got = {}
        else:
            wall += seconds
            scaled += seconds * calibrate.scale_after(seconds)
        for key in keys:
            ops[key] = workloads.digest(got[key]) if key in got else None
    return wall, scaled, ops


def run_passes(calls: list[Call], seconds: float) -> tuple[list[float], list[float], list[dict]]:
    """Passes until the next one would overrun ``seconds`` (at least one).

    Returns the measured pass times, the same at reference CPU speed, and
    the operation digests of each pass.
    """
    walls: list[float] = []
    scaled: list[float] = []
    passes: list[dict] = []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        wall, wall_scaled, ops = run_pass(calls)
        walls.append(wall)
        scaled.append(wall_scaled)
        passes.append(ops)
        now = time.perf_counter()
        if now - begin + (now - t0) > seconds:
            return walls, scaled, passes


def setup_seconds() -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters running ``import qhecke``, measured
    and at reference CPU speed (each followed by as long a calibration).

    No timeout is passed: with one, ``subprocess`` polls the child at up
    to 50 ms intervals, which would quantise the measurement.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import qhecke"]
    subprocess.run(cmd, env=env, check=True)  # warm the file cache
    times, scaled = [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - t0)
        scaled.append(times[-1] * calibrate.scale_for(times[-1]))
    return times, scaled


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qhecke" / "__init__.py").is_file():
        print(f"error: no qhecke sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qhecke.cli  # noqa: F401  (compiles and caches the package)

    index = workloads.load_index()
    calls = workloads.make_calls(args.workload, args.seed, index)
    ops_per_pass = sum(len(keys) for _, keys in calls)
    metrics: dict[str, dict] = {}

    if args.trace == 0:
        setup, setup_scaled = setup_seconds()
        walls, scaled, passes = run_passes(calls, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        q1, med, q3 = quartiles(scaled)
        metrics["wall_s"] = {"value": med, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        metrics["setup_s"] = {"value": statistics.median(setup_scaled), "unit": "s"}
        timing = {
            "wall_s_q1": q1,
            "wall_s_q3": q3,
            "passes": len(walls),
            "measured_pass_s": walls,
            "measured_setup_s": setup,
        }
    else:
        from tracer import Tracer

        walls, scaled, passes = run_passes(calls, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, traced_scaled, traced_ops = run_pass(calls)
        finally:
            tracer.uninstall()
        passes.append(traced_ops)
        layer = tracer.metrics(traced_wall, traced_scaled - statistics.median(scaled))
        for name, unit, _ in PER_LAYER:
            metrics[name] = {"value": layer.pop(name), "unit": unit}
        if layer:
            raise RuntimeError(f"traced metrics missing from PER_LAYER: {sorted(layer)}")
        tracer.write(ROOT / ".bench_build" / "perfbench" / f"trace-{args.workload}-{args.seed}.json.gz")
        timing = {"wall_s": statistics.median(scaled), "passes": len(walls), "measured_pass_s": walls}

    reference = workloads.load_reference(args.workload)
    attempted, failed, bad = workloads.count_failures(passes, reference)
    for key in bad:
        print(f"mismatch against the reference: {key}", file=sys.stderr)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "calls": [" ".join(argv) for argv, _ in calls],
        "ops_per_pass": ops_per_pass,
        "error_rate": failed / attempted,
        "outputs_sha256": workloads.digest(sorted(passes[0].items())),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_lines": src_lines(),
        **timing,
    }
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
