#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. `--trace 0` runs the untraced binary and
prints every end-to-end metric; `--trace 1` runs the traced binary (with
the counting allocator) and prints every per-layer metric. The last line
of standard output is the result object; the line before it records the
run's provenance. Extra arguments (`--inject ...`) pass through to the
binary. Exits non-zero, without a result, when the build fails.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def arg(argv, key, default=None):
    return argv[argv.index(key) + 1] if key in argv and argv.index(key) + 1 < len(argv) else default


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=60).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    argv = sys.argv[1:]
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    traced = arg(argv, "--trace", "0") == "1"
    binary = os.path.join(target, "release", "perfbench_traced" if traced else "perfbench")
    provenance = {
        "workload": arg(argv, "--workload"),
        "seed": arg(argv, "--seed"),
        "trace": traced,
        "nproc": os.cpu_count(),
        "rustc": command_output(["rustc", "--version"]),
        "commit": command_output(["git", "-C", root, "rev-parse", "HEAD"]),
        "serve_workers": 1,
    }
    with open(os.path.join(HERE, "reference.json")) as f:
        provenance["phase_b_rate"] = json.load(f)["serve-3d-local"]["phase_b_rate"]
    run = subprocess.run(
        [binary, *argv, "--reference", os.path.join(HERE, "reference.json")],
        stdout=subprocess.PIPE, text=True,
    )
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        if line.startswith("detail: "):
            provenance.update(json.loads(line[len("detail: "):]))
        else:
            print(line)
    if not lines:
        print("error: the benchmark printed no result", file=sys.stderr)
        return run.returncode or 1
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    print(lines[-1])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
