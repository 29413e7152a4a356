#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hot-read --seed 1 --seconds 10 --trace 0

The Go build cache, the binaries and all scratch files live under
.bench_build/ in the current directory (or $CARGO_TARGET_DIR when set), so
the benchmark reads and writes nothing outside the checkout. Both binaries
are built before anything is timed. Arguments are passed to the benchmark
binary unchanged.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def main():
    env = dict(os.environ)
    # Measure what users run: the environment must not select the crypto
    # backend or the ECC codec.
    env.pop("AUTHMEM_CRYPTO_BACKEND", None)
    env.pop("AUTHMEM_ECC_CODEC", None)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        # Go's local telemetry and user config live under this directory.
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOTMPDIR": tmp,
        "TMPDIR": tmp,
        "GOFLAGS": "-mod=mod",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    bindir = os.path.join(BUILD, "bin")
    bench = os.path.join(bindir, "perfbench")
    memserved = os.path.join(bindir, "memserved")
    builds = [
        (["go", "build", "-o", memserved, "./cmd/memserved"], ROOT),
        (["go", "build", "-o", bench, "."], os.path.join(ROOT, "perfbench")),
    ]
    for cmd, cwd in builds:
        r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if r.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    args = [bench, "--memserved", memserved,
            "--workdir", os.path.join(BUILD, "work")] + sys.argv[1:]
    return subprocess.run(args, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
