#!/usr/bin/env python3
"""Build and run the provbench benchmark from the repository root.

    python3 provbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark (and the provmark library it links) from source
into .bench_build/provbench, runs one workload, checks that the result
line names exactly the metrics BENCHMARK.json registers for the trace
mode, and prints it as the last line of standard output. Build output
goes to standard error. Exits non-zero without a result line when the
build or the run fails.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "provbench")
# Relative to ROOT (the run's working directory): the serve layers put
# AF_UNIX sockets under it, and socket paths are limited to 107 bytes.
OUT = os.path.join(".bench_build", "provbench-out")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", BUILD, "--target", "provbench", "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("provbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "provbench")


def registered_names(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def main(argv):
    if "--trace" not in argv or argv.index("--trace") + 1 >= len(argv):
        sys.exit("provbench: --trace 0|1 is required")
    traced = argv[argv.index("--trace") + 1] == "1"
    binary = build()
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    run = subprocess.run(
        [binary] + argv + ["--data-dir", HERE, "--out-dir", OUT],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    if run.returncode != 0 or not lines:
        sys.exit("provbench: run failed with exit code %d" % run.returncode)
    result = json.loads(lines[-1])
    if list(result["metrics"]) != registered_names(traced):
        sys.exit("provbench: printed metrics differ from BENCHMARK.json")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
