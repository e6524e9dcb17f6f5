#!/usr/bin/env python3
"""Print a short digest of the output of each reference command.

Each command runs in a fresh interpreter on this checkout's sources, with
BLAS on one thread.  A digest is the first 16 hex digits of the sha256 of
the command's standard output, followed for CLI commands by
"exit=<code>\\n"; for the `report` commands the wall-clock field runtime_s
is dropped first.  The table of digests in CHANGES.md uses this form.  Running
the script on two checkouts and comparing the lines checks that a change
keeps every output byte-identical.  With --one-cpu each command first pins
itself to one usable CPU (os.sched_setaffinity, which an exec keeps), so
every call that would go to airylab's thread pool runs in place:

    python scripts/output_digests.py                 # every command
    python scripts/output_digests.py --only "sao ldp"  # labels containing the text
    python scripts/output_digests.py --one-cpu       # every command on one CPU
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPORT_FAST = "report --fast, runtime_s stripped"
# run as `python -c PIN_CPU <cpu> <argv>`: pin this process, then exec the command
PIN_CPU = ("import os, sys; os.sched_setaffinity(0, {int(sys.argv[1])}); "
           "os.execv(sys.executable, [sys.executable, *sys.argv[2:]])")

# (label, argv after the interpreter); labels name the command as the CLI reads it
COMMANDS = [
    ("rate-fn --z-min -2 --z-max 0 --steps 21 --beta 2", None),
    ("variational --z -1 --beta 2", None),
    ("hill --j 1 --xi 1 --beta 2 --grid-n 4096 --seed 7", None),
    ("hill --j 1 --xi 1 --beta 2 --grid-n 512 --boundary periodic --seed 7", None),
    ("hill --j 1 --lambda 30 --seed 7", None),
    ("hill --j 1 --xi 1 --grid-n 16 --lambda 10000 --seed 7", None),
    ("hill --grid-n 8 (exit 1)", ["-m", "airylab.cli", "hill", "--grid-n", "8"]),
    ("sao spectrum --domain-l 20 --grid-n 8192 --lambda-cap 5 --seed 7", None),
    ("sao count --grid-n 1024 --domain-l 12 --lambda-cap 5 --lambda 3 --seed 7", None),
    ("sao sandwich --z -1 --t 1 --n-levels 2 --samples 400 --seed 7", None),
    ("sao ldp --z -1 --t 16 --samples 400 --importance --seed 7", None),
    ("sao ldp --z -1 --t 4 --samples 400 --seed 7", None),
    ("sao ldp --z -1 --t 16 --samples 200 --seed 7", None),
    ("fredholm --s 1 --t 1", None),
    ("fredholm compare --s 1 --t 1 --samples 100 --sao-grid-n 4096 --seed 7", None),
    ("wkb --trials 40 --grid-n 128 --seed 7", None),
    ("scripts/ldp_trend.py --t 2 4 --samples 200", None),
    ("scripts/fredholm_sweep.py --s 0.5 1 2 --samples 100 --grid-n 2048", None),
    ("scripts/fredholm_sweep.py --s 0.25 4 64 --t 2 --samples 50 --grid-n 2048", None),
    ("scripts/sandwich_scan.py --n 1 2 --samples 300", None),
    ("report --skip mc --fast, runtime_s stripped",
     ["-m", "airylab.cli", "report", "--skip", "mc", "--fast"]),
    (REPORT_FAST, ["-m", "airylab.cli", "report", "--fast"]),
]


def argv_of(label: str, argv: list[str] | None) -> list[str]:
    if argv is not None:
        return argv
    words = label.split()
    return words if words[0].startswith("scripts/") else ["-m", "airylab.cli", *words]


def run_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def strip_runtimes(stdout: bytes) -> bytes:
    report = json.loads(stdout)
    for criterion in report["criteria"]:
        criterion.pop("runtime_s", None)
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def digest(argv: list[str], report: bool = False, exit_line: bool = True,
           one_cpu: bool = False) -> str:
    """Digest of `python <argv>`; report=True drops the runtimes of a report first.

    one_cpu=True runs the command pinned to the lowest CPU this process may use.
    """
    if one_cpu:
        argv = ["-c", PIN_CPU, str(min(os.sched_getaffinity(0))), *argv]
    done = subprocess.run([sys.executable, *argv], cwd=ROOT, env=run_env(),
                          capture_output=True, check=False)
    out = strip_runtimes(done.stdout) if report else done.stdout
    if exit_line:
        out += f"exit={done.returncode}\n".encode()
    return hashlib.sha256(out).hexdigest()[:16]


def label_digest(label: str, argv: list[str] | None = None, one_cpu: bool = False) -> str:
    """Digest of one entry of COMMANDS."""
    return digest(argv_of(label, argv), report=label.startswith("report "),
                  exit_line=not label.startswith("scripts/"), one_cpu=one_cpu)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", action="append", default=None,
                    help="run the commands whose label contains this text (repeatable)")
    ap.add_argument("--one-cpu", action="store_true",
                    help="pin each command to one CPU, so airylab's pool work runs in place")
    args = ap.parse_args()
    for label, argv in COMMANDS:
        if args.only is None or any(text in label for text in args.only):
            print(f"{label}  {label_digest(label, argv, args.one_cpu)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
