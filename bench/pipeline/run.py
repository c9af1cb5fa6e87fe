#!/usr/bin/env python3
"""Builds and runs the end-to-end pipeline benchmark (bench_pipeline.cc).

Usage, from the repository root:

  python3 bench/pipeline/run.py [--workload W] [--seed N] [--seconds S]
                                [--trace [0|1]] [--smoke]

A benchmark runner reading BENCHMARK.json calls it as `--workload W
--seed N --seconds S --trace 0|1`, with S the file's run_seconds, which
is also what --seconds defaults to. Without --workload every workload
runs, each in its own process. A run prints its metrics as
`name value unit` lines, then, as its last line, one JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json, or with --trace its per-layer metrics. The full
result, stamped with the machine fingerprint, goes to
.bench_build/pipeline/results/, with trace_<workload>.json (Chrome
trace-event format) beside it for traced runs.

After a build that produced a new binary, measuring waits
SETTLE_AFTER_BUILD_S. --smoke runs every workload for 2 s with one
set-up, every check included, and does not wait. Exit status: 0 when
every run checked correct, 1 when an output check failed, 2 when the
benchmark could not be built or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SOURCE_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "pipeline"
RESULTS_DIR = BUILD_DIR / "results"
BINARY = BUILD_DIR / "bench_pipeline"

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# For about 40 s after a full rebuild on four cores, runs measured ~10%
# slower in ingest and set-up alike; measuring starts after this pause.
SETTLE_AFTER_BUILD_S = 60


class BenchError(Exception):
    pass


def load_spec():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build(settle):
    if not (ROOT / "src" / "dtalib" / "client.h").is_file():
        raise BenchError(f"library sources not found under {ROOT / 'src'}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(SOURCE_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    before = BINARY.stat().st_mtime_ns if BINARY.is_file() else None
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    run_build_step(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    if not BINARY.is_file():
        raise BenchError(f"{BINARY} was not built")
    if settle and BINARY.stat().st_mtime_ns != before:
        print(f"run.py: built; settling {SETTLE_AFTER_BUILD_S} s before "
              "measuring", file=sys.stderr, flush=True)
        time.sleep(SETTLE_AFTER_BUILD_S)


def run_build_step(cmd):
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{' '.join(cmd)}: {e}") from e
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}")


def read_first_line(path, prefix=""):
    try:
        with open(path, encoding="utf-8") as f:
            for line in f:
                if line.startswith(prefix):
                    return line[len(prefix):].strip(" :\t\n")
    except OSError:
        pass
    return "unknown"


def fingerprint(result, args):
    thp = read_first_line("/sys/kernel/mm/transparent_hugepage/enabled")
    if "[" in thp:
        thp = thp[thp.index("[") + 1:thp.index("]")]
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    build_info = result.get("build", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": read_first_line("/proc/cpuinfo", "model name"),
        "hw_crc32c": build_info.get("hw_crc32c"),
        "thp": thp,
        "compiler": build_info.get("compiler"),
        "flags": build_info.get("flags"),
        "git_sha": sha,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def run_workload(name, args, metric_names):
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    tag = f"{name}_seed{args.seed}_trace{args.trace}"
    raw = RESULTS_DIR / f"{tag}.raw.json"
    raw.unlink(missing_ok=True)
    cmd = [str(BINARY), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(raw)]
    if args.trace:
        cmd += ["--trace-out", str(RESULTS_DIR / f"trace_{name}.json")]
    if args.smoke:
        cmd += ["--setup-reps", "1", "--warmup", "0.2"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"{name}: {e}") from e
    sys.stdout.write(proc.stdout)
    if proc.returncode not in (0, 3) or not raw.is_file():
        raise BenchError(f"{name}: bench_pipeline exited {proc.returncode}")
    with open(raw, encoding="utf-8") as f:
        result = json.load(f)
    raw.unlink()
    result["fingerprint"] = fingerprint(result, args)
    with open(RESULTS_DIR / f"{tag}.json", "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    missing = [m for m in metric_names if m not in result["metrics"]]
    if missing:
        raise BenchError(f"{name}: metrics missing from the run: {missing}")
    line = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m: result["metrics"][m] for m in metric_names},
    }
    print(json.dumps(line), flush=True)
    return line["correct"]


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="timed seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="2 s per workload, one set-up, every check")
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None and args.workload not in names:
            raise BenchError(
                f"unknown workload {args.workload}; one of {names}")
        if args.smoke:
            args.seconds = 2
        elif args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.seconds < 1:
            raise BenchError("--seconds must be at least 1")
        metric_names = [m["name"] for m in
                        spec["per_layer" if args.trace else "end_to_end"]]
        build(settle=not args.smoke)
        correct = True
        for name in [args.workload] if args.workload else names:
            correct = run_workload(name, args, metric_names) and correct
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
