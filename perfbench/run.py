#!/usr/bin/env python3
"""Build and run one workload of FishStore's repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload retrieve --seed 1 --seconds 10 --trace 0

The benchmark is the Go module in perfbench/, which uses the repository's
fishstore module through a replace directive. This script builds it into the
build directory ($CARGO_TARGET_DIR, default .bench_build, relative to the
checkout root), with the Go build cache kept there too, then runs it. The
last line of standard output is the result JSON; BENCHMARK.json lists the
workloads and metrics. A traced run (--trace 1) also writes its spans as
Chrome trace JSON into the build directory.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["ingest", "retrieve", "mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        fail("no go.mod at " + ROOT + ": the benchmark builds the repository's own sources")
    go = shutil.which("go")
    if go is None:
        fail("the go toolchain is not on PATH")

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    try:
        built = subprocess.run([go, "build", "-o", binary, "."], cwd=HERE, env=env,
                               stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if built.returncode != 0:
        fail("build failed")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(build, "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        ran = subprocess.run(cmd, cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
