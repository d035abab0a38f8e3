#!/usr/bin/env python3
"""Build and run the DynamicC serving benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload febrl-burst [--seed N] [--seconds S] [--trace 0|1]

Builds the `dc-perfbench` package (perfbench/Cargo.toml, release profile)
into $CARGO_TARGET_DIR (default: .bench_build at the repository root), runs
it, and passes its output through: the last line of stdout is the JSON
result.  Engine directories live under the target directory and are removed
afterwards; the traced run's spans are written to
<target>/perfbench-traces/<workload>-seed<N>.jsonl.

Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    work = os.path.join(target, "perfbench-work", str(os.getpid()))
    cmd = [os.path.join(target, "release", "dc-perfbench"),
           "--workload", args.workload,
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", work]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace:
        seed = "default" if args.seed is None else str(args.seed)
        cmd += ["--trace-out", os.path.join(
            target, "perfbench-traces", f"{args.workload}-seed{seed}.jsonl")]
    try:
        return subprocess.run(cmd, env=env).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is still using it


if __name__ == "__main__":
    sys.exit(main())
