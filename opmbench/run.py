#!/usr/bin/env python3
"""opmbench: the end-to-end benchmark of the sweep service and of the
whole-paper regeneration.

    python3 opmbench/run.py --workload serve_large_cold --seed 1 --seconds 20 --trace 0
    python3 opmbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 opmbench/run.py --self-test

Builds the driver and the serve binaries from the checkout's sources into
.bench_build/opmbench (Release), runs the workload in a fresh working
directory under .bench_build/runs/ (removed afterwards), and prints the
driver's report. The last line of stdout is the JSON result. Build output
goes to stderr. See opmbench/README.md for the workloads and metrics.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "opmbench"
WORKLOADS = ("serve_large_cold", "serve_small_hot", "paper_regen")
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("opmbench: repository sources not found (expected src/CMakeLists.txt next to opmbench/)")
        return False
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure + generator, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    command = ["cmake", "--build", str(BUILD), "-j", jobs, "--target", *targets]
    return subprocess.call(command, stdout=sys.stderr, stderr=sys.stderr) == 0


def git_rev():
    """The checked-out revision, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text[:12]
        ref = text[5:]
        ref_file = ROOT / ".git" / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()[:12]
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:12]
    except OSError:
        pass
    return "unknown"


def clean_env():
    # The program reads OPM_* knobs (cache dir, workers, sampling); a run
    # must not inherit them from the caller's shell.
    return {k: v for k, v in os.environ.items() if not k.startswith("OPM_")}


def run_workload(workload, args):
    runs = ROOT / ".bench_build" / "runs"
    work = runs / f"{workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans_dir = ROOT / ".bench_build" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    command = [
        str(BUILD / "bin" / "opmbench"),
        f"--workload={workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
        f"--bin-dir={BUILD / 'bin'}",
        f"--golden={HERE / 'golden' / 'paper_regen.txt'}",
        f"--spans={spans_dir / f'{workload}-seed{args.seed}.jsonl'}",
        f"--git-rev={git_rev()}",
    ]
    # A session of its own, so a timeout can stop the driver together with
    # the servers it started.
    proc = subprocess.Popen(command, cwd=work, env=clean_env(), start_new_session=True)
    try:
        rc = proc.wait(timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"opmbench: {workload} exceeded {DRIVER_TIMEOUT_S} s; stopping it")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        rc = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return rc


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()

    if args.self_test:
        if not build(["opmbench_tests"]):
            return 2
        return subprocess.call([str(BUILD / "opmbench_tests")], env=clean_env())
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    started = time.monotonic()
    if not build(["opmbench", "opm_serve", "opm_router"]):
        log("opmbench: build failed")
        return 2
    log(f"opmbench: build ready in {time.monotonic() - started:.1f} s")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for workload in workloads:
        status = max(status, run_workload(workload, args))
    return status


if __name__ == "__main__":
    sys.exit(main())
