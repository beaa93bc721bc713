#!/usr/bin/env python3
"""Build the benchmark and the `bestpeer-node` binary from source, then run
one workload.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 20 --trace 0

Run it from the repository root. Builds go to $CARGO_TARGET_DIR, or to
`.bench_build` when that is unset. All arguments are passed through to the
`perfbench` binary; see perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, target, extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest] + extra
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    # Cargo reports progress on stderr; stdout is kept for the result line.
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode


def main():
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    if not (os.path.isfile(root_manifest) and os.path.isdir(os.path.join(ROOT, "crates"))):
        sys.stderr.write("perfbench: the BestPeer++ sources are not beside the "
                         "benchmark directory; nothing to build or run\n")
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or os.path.join(ROOT, ".bench_build"))
    if build(os.path.join(HERE, "Cargo.toml"), target, []) != 0:
        return 2
    if build(root_manifest, target, ["--bin", "bestpeer-node"]) != 0:
        return 2
    binary = os.path.join(target, "release", "perfbench")
    node = os.path.join(target, "release", "bestpeer-node")
    args = [binary] + sys.argv[1:] + ["--node-bin", node]
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    sys.exit(main())
