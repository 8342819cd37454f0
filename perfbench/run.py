#!/usr/bin/env python3
"""Builds the `energydx` binary and the benchmark itself, then runs one
workload.

    python3 perfbench/run.py --workload <batch|ingest|query|query-spill> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. Both builds go to $CARGO_TARGET_DIR
(default `.bench_build`); corpora, daemon state and spans go under
`.perfbench/`. Build output goes to standard error; the benchmark's last
line of standard output is the JSON result.

    python3 perfbench/run.py --all [--seed <n>] [--seconds <s>]

runs every workload once, untraced then traced.
"""

import os
import subprocess
import sys

WORKLOADS = ["batch", "ingest", "query", "query-spill"]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "energydx-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def run_one(target, args):
    bench = os.path.join(target, "release", "perfbench")
    energydx = os.path.join(target, "release", "energydx")
    return subprocess.run([bench, *args, "--energydx", energydx]).returncode


def main(argv):
    if not (os.path.isfile("Cargo.toml")
            and os.path.isdir(os.path.join("crates", "cli"))
            and os.path.isfile(os.path.join("perfbench", "Cargo.toml"))):
        fail("run from the root of an energydx checkout "
             "(needs Cargo.toml, crates/ and perfbench/)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(target)
    if "--all" in argv:
        seed = argv[argv.index("--seed") + 1] if "--seed" in argv else "1"
        seconds = argv[argv.index("--seconds") + 1] if "--seconds" in argv else "10"
        worst = 0
        for workload in WORKLOADS:
            for trace in ("0", "1"):
                print(f"== {workload} --trace {trace}", flush=True)
                worst = max(worst, run_one(target, [
                    "--workload", workload, "--seed", seed,
                    "--seconds", seconds, "--trace", trace]))
        return worst
    return run_one(target, argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
