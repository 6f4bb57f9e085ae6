#!/usr/bin/env python3
"""End-to-end benchmark: sensor encode -> durable station ingest -> query.

Run from the root of a checkout of the repository:

    python3 e2ebench/run.py --workload fleet_ingest --seed 1 --seconds 20 --trace 0

Builds the repository's libraries (with the repository's own CMake files)
and the benchmark driver into $CARGO_TARGET_DIR/e2ebench (default
.bench_build/e2ebench) and runs one workload in one driver process. The
last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Build output goes to build.log in the build
directory. With --trace 1 the span trace is written to
traces/<workload>-seed<seed>.csv in the build directory.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build(build_dir: Path) -> Path:
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(PACKAGE), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                sys.stderr.write(log_path.read_text()[-4000:])
                sys.exit("e2ebench: build failed, see " + str(log_path))
    return build_dir / "e2ebench_driver"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("e2ebench: no repository sources next to " + str(PACKAGE))
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "e2ebench"
    driver = build(build_dir)

    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.csv")]
    print(run_driver(cmd, build_dir))
    return 0


def run_driver(cmd, build_dir: Path) -> str:
    """Runs the driver in a fresh work directory; returns its result line."""
    workdir = build_dir / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        proc = subprocess.run(cmd + ["--workdir", str(workdir)],
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("e2ebench: driver exited with %d" % proc.returncode)
    json.loads(lines[-1])
    return lines[-1]


if __name__ == "__main__":
    sys.exit(main())
