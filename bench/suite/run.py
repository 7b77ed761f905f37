#!/usr/bin/env python3
"""Build geoloc_bench from this checkout and run one workload.

    python3 bench/suite/run.py --workload <name> --seed N --seconds S --trace 0|1
                               [--out results.jsonl]
    python3 bench/suite/run.py --write-expected

The build goes to .bench_build/suite at the checkout root (Release, from the
repository's own src/). The binary's human-readable lines are echoed; the
last line printed is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics untraced, the per-layer metrics
with --trace 1. Exits non-zero, without that line, when the build or the
run fails, and with 1 after the line when an output check failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "suite"
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build the binary; returns its path or None."""
    steps = []
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "geoloc_bench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            sys.stderr.write(f"run.py: build step failed: {' '.join(cmd)}\n")
            return None
    return BUILD / "geoloc_bench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full result record here")
    ap.add_argument("--write-expected", action="store_true",
                    help="regenerate bench/suite/expected.json (seed 1)")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 2

    if args.write_expected:
        return subprocess.run([str(binary), "--write-expected",
                               str(HERE / "expected.json")]).returncode
    if not args.workload:
        ap.error("--workload is required")

    work = ROOT / ".bench_build" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(work)]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--trace", str(ROOT / ".bench_build" /
                               f"spans-{args.workload}-{args.seed}.json")]
    if args.out:
        cmd += ["--out", str(Path(args.out).resolve())]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s\n")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(done.stdout)
        sys.stderr.write(f"run.py: no result record (exit {done.returncode})\n")
        return 2
    for line in lines[:-1]:
        print(line)
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))
    return 0 if done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
