#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload paper_table3 --seed 1 --seconds 20 --trace 0

The workloads are paper_table3, zipf_mixed and versioned_overwrite.  The
build goes to .bench_build/, with the dune cache off so nothing is written
outside the checkout.  The last line of standard output is the result as
one JSON object; on a build failure or a failed output check the script
exits non-zero and prints no result.  With --trace 1 the spans of the
traced run are written to .bench_build/spans/.
"""

import argparse
import os
import subprocess
import sys


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["paper_table3", "zipf_mixed", "versioned_overwrite"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    build = ".bench_build"
    dune_dir = os.path.abspath(os.path.join(build, "dune"))
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    built = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", dune_dir,
         "--profile", "release", "./perfbench/perfbench.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if built.returncode != 0:
        sys.stderr.write(built.stdout)
        sys.stderr.write("run.py: the benchmark did not build\n")
        return 2

    cmd = [os.path.join(dune_dir, "default", "perfbench", "perfbench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-dir", spans]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
