#!/usr/bin/env python3
"""Builds the speedmask benchmark from source and runs one workload.

    python3 speedbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 speedbench/run.py --selftest

Run from anywhere inside a checkout: the library is compiled from ../src
into .bench_build/ (or $CARGO_TARGET_DIR when set) with CMake, as an
optimised RelWithDebInfo build. Build output goes to stderr; stdout carries
the benchmark's stamp and metric lines and ends with one JSON object
{"correct", "attempted", "failed", "metrics"}. The exit code is the
benchmark's: 0 when every check passed.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("flow_table2", "mc_validate", "daemon_sweep", "opt_search")
RUN_LIMIT_S = 170  # a measured run must end within 180 s, build excluded


def fail(message):
    print("speedbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "speedbench")


def child_env():
    """Keeps compiler and program temporaries inside the build directory."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no speedmask sources at %s" % os.path.join(ROOT, "src"))
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail("%s not found" % tool)
    bdir = build_dir()
    env = child_env()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       stdout=sys.stderr, check=True, timeout=300, env=env)
    subprocess.run(["cmake", "--build", bdir, "--target", "speedbench",
                    "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True, timeout=840, env=env)
    return os.path.join(bdir, "speedbench")


def source_stamp():
    """The git commit when there is one, and a digest of the sources."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "speedbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "%s/src-%s" % (commit, digest.hexdigest()[:12])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if args.selftest:
        sys.exit(subprocess.run([binary, "--selftest"], timeout=60,
                                env=child_env()).returncode)

    # The daemon's Unix socket lives here; a relative path keeps it short.
    run_dir = os.path.join(build_dir(), "run")
    os.makedirs(run_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--run-dir", os.path.relpath(run_dir), "--commit", source_stamp()]
    try:
        result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_LIMIT_S, env=child_env())
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_LIMIT_S)
    lines = result.stdout.rstrip("\n").split("\n")
    try:
        last = json.loads(lines[-1])
        if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
            raise ValueError("unexpected keys %s" % sorted(last))
    except ValueError as e:
        sys.stdout.write(result.stdout)
        fail("no result line: %s" % e)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
