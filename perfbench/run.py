#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload fig7|cosim|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Builds perfbench/ (which builds the qla
library from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs qla_perfbench. The last line of standard
output is the result JSON; it is printed only when the run succeeded and
its metrics are exactly the ones BENCHMARK.json names for the mode.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    """Configure once, then build; compiler output goes to stderr."""
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def declared_metrics(traced):
    """{name: unit} that BENCHMARK.json names for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if traced else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, traced):
    """Error text when the result line does not match BENCHMARK.json."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as error:
        return f"last line is not JSON: {error}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = declared_metrics(traced)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        return f"metrics differ: missing {missing} extra {extra} units {units}"
    return None


def self_test(out):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    bad = [n for n in names if not NAME_RE.match(n)]
    if bad or len(set(names)) != len(names):
        log(f"BENCHMARK.json names bad or repeated: {bad}")
        return 1
    return subprocess.run([str(out / "perfbench_selftest")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["fig7", "cosim", "serve"])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        log("build failed")
        return 1
    if args.self_test:
        return self_test(out)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    workdir = out.parent / "perfbench-work"
    workdir.mkdir(parents=True, exist_ok=True)
    command = [str(out / "qla_perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(lines))
        log(f"qla_perfbench exited with {proc.returncode}")
        return proc.returncode
    error = check_result(lines[-1], args.trace == 1)
    if error:
        print("\n".join(lines[:-1]))
        log(error)
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
