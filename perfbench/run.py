#!/usr/bin/env python3
"""Build and run the DLearn end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

Run from the root of the repository. The benchmark is its own Cargo package
(perfbench/Cargo.toml) that depends on the repository's crates by path; it is
built in release mode into $CARGO_TARGET_DIR (default `.bench_build`).
Everything the build prints goes to stderr, so the last line of stdout is the
run's JSON result. `--smoke` runs every workload, traced and untraced, at the
tiny scale and checks that each one passes its output checks.
"""

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
MANIFEST = os.path.join("perfbench", "Cargo.toml")
WORKLOADS = ["serve-zipf", "serve-churn"]


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    result = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(ROOT, target, "release", "dlearn-perfbench")


def smoke(binary):
    failures = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
                   "--trace", trace, "--scale", "tiny"]
            run = subprocess.run(cmd, capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            ok = run.returncode == 0 and result.get("correct") is True
            failures += not ok
            print(f"{workload:<13} trace={trace}: {'ok' if ok else 'FAILED'} "
                  f"({len(result.get('metrics', {}))} metrics)")
            if not ok:
                sys.stdout.write(run.stdout + run.stderr)
    return 1 if failures else 0


def main():
    if not os.path.isfile(MANIFEST) or not os.path.isdir("crates"):
        sys.exit("perfbench: run from the repository root")
    binary = build()
    if sys.argv[1:] == ["--smoke"]:
        sys.exit(smoke(binary))
    # The benchmark binary parses and checks the remaining arguments.
    sys.exit(subprocess.run([binary] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
