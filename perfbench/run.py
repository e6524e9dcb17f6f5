"""Run one airylab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fredholm_identity --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; airylab is imported from ./src.
The run sets up (import, configs, grids, one warm-up call), runs the
workload's once-per-run prologue, then repeats rounds of its fixed input
size until --seconds have passed, and checks every output.  --trace 0
reports the end-to-end metrics; --trace 1 runs every step twice, untraced
and traced, requires identical outputs and reports per-layer metrics from
the traced copies.  The last line of standard
output is one JSON object; the full record (provenance, round times, notes,
and with --trace 1 every span) goes to .perfbench_out/.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# fresh interpreters that repeat the set-up, so setup_s is a median
SETUP_REPEATS = 2


def set_up(workload: str, seed: int, smoke: bool):
    """Import airylab, build the workload and warm it up; returns it and the seconds taken."""
    t0 = time.perf_counter()
    if not (SRC / "airylab" / "__init__.py").is_file():
        raise SystemExit(f"airylab sources not found in {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import airylab
    if Path(airylab.__file__).resolve().parent != SRC / "airylab":
        raise SystemExit(f"imported airylab from {airylab.__file__}, not from {SRC}")
    import bench_workloads
    wl = bench_workloads.WORKLOADS[workload](seed, smoke=smoke)
    wl.warm_up()
    return wl, time.perf_counter() - t0


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": blas, "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "commit": git_commit(), "seed": seed}


def timed_phase(wl, seconds: float, tally, tracer=None):
    """The workload's prologue, then rounds until `seconds` have passed.

    Returns the prologue's wall and each round's wall.  With a tracer every
    step runs twice, untraced then traced, and the two outputs must be
    identical; the traced copies' walls come back too.
    """
    walls, traced_walls = [], []

    def step(index, run):
        t0 = time.perf_counter()
        out = run()
        walls.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.trace_id = index
            with tracer.installed():
                t0 = time.perf_counter()
                traced = run()
                traced_walls.append(time.perf_counter() - t0)
            tally.check(json.dumps(out) == json.dumps(traced),
                        f"traced step {index} identical to the untraced one")
        return out

    start = time.perf_counter()
    step(-1, lambda: wl.prologue(tally))
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        wl.absorb(step(index, lambda: wl.round(index, tally)))
        index += 1
    return walls, traced_walls


def setup_repeats(args) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("fredholm_identity", "ldp_importance", "kernel_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the set-up time and exit")
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads BLAS: one thread, one process
        os.environ[var] = "1"

    wl, setup_s = set_up(args.workload, args.seed, args.smoke)
    if args.setup_only:
        print(repr(setup_s))
        return 0

    import numpy as np
    import bench_trace
    import bench_workloads
    tally = bench_workloads.Tally()
    tracer = bench_trace.Tracer() if args.trace else None
    walls, traced_walls = timed_phase(wl, args.seconds, tally, tracer)
    summary = wl.finish(tally)
    record = {"workload": args.workload, "provenance": provenance(args.seed),
              "seconds": args.seconds, "smoke": args.smoke,
              "prologue_wall_s": walls[0], "round_walls_s": walls[1:],
              "summary": summary, "notes": tally.notes}

    if args.trace:
        rng = np.random.default_rng(bench_workloads.round_seed_sequence(args.seed, "baseline", 0))
        rounds = len(walls) - 1
        metrics = bench_trace.layer_metrics(tracer.layer_totals(), rounds)
        metrics["trace.overhead_s"] = (statistics.median(traced_walls[1:])
                                       - statistics.median(walls[1:]), "s")
        metrics["trace.coverage"] = (bench_trace.covered_time(tracer.spans) / sum(traced_walls),
                                     "fraction")
        metrics["baseline.plain_solve_ms"] = (wl.plain_solve_ms(rng), "ms")
        metrics["baseline.plain_airy_ns_per_point"] = (bench_workloads.plain_airy_ns_per_point(), "ns")
        record["traced_walls_s"] = traced_walls
        record["spans"] = tracer.dump()
    else:
        total = sum(walls)
        wall_s = statistics.median(walls[1:])
        stderr, target = summary["stderr"], summary["target_stderr"]
        # without a Monte-Carlo target one pass of the exact checks is the answer
        tta = total * (stderr / target) ** 2 if target else wall_s
        setups = [setup_s] + setup_repeats(args)
        record["setup_s_all"] = setups
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall_s, "s"),
            "samples_per_s": (summary["samples"] / total, "1/s"),
            "time_to_accuracy_s": (tta, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    print(json.dumps({"provenance": record["provenance"]}))
    for note in tally.notes:
        print(note)
    print(f"rounds: {len(walls) - 1}, record: {out_file.relative_to(ROOT)}")
    share = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"check_fail_share = {tally.failed}/{tally.attempted} = {share:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
