#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload spatial_call --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset;
later calls rebuild incrementally. The program's output is passed through:
one line per metric, then one JSON result line. The exit code is non-zero
when the build fails, any output check fails, or the printed metrics do not
match BENCHMARK.json.

--self-test runs every workload at tiny scale in both modes, checks that
every metric in BENCHMARK.json is printed with its unit, and injects two
faults (a corrupted loopback payload byte, a wrong fleet digest) that must
make the checks fail.
"""
import argparse
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("spatial_call", "sfu_loopback", "fleet")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no program sources at {os.path.join(ROOT, 'src')}")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "perfbench")


def program_env():
    # The program reads VTP_* knobs from the environment; the benchmark
    # measures the defaults, whatever the caller's shell holds.
    return {k: v for k, v in os.environ.items() if not k.startswith("VTP_")}


def run_program(binary, args):
    """Runs the program; returns (exit code, stdout text, parsed last line or None)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, text=True,
                              env=program_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}")
        return 1, "", None
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, proc.stdout, result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_problems(spec, trace, stdout, result):
    """Differences between what the program printed and BENCHMARK.json."""
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = []
    if result is None or not isinstance(result.get("metrics"), dict):
        return ["no JSON result line"]
    got = result["metrics"]
    for name, unit in wanted.items():
        if name not in got:
            problems.append(f"metric {name} missing")
        elif got[name].get("unit") != unit:
            problems.append(f"metric {name} has unit {got[name].get('unit')}, expected {unit}")
        elif not re.search(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}$", stdout, re.M):
            problems.append(f"metric {name} not printed with its unit")
    problems += [f"metric {name} not in BENCHMARK.json" for name in got if name not in wanted]
    return problems


def program_args(workload, seed, seconds, trace, extra=()):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", "1" if trace else "0"]
    if trace:
        args += ["--trace-out", os.path.join(build_dir(), f"spans-{workload}.jsonl")]
    return args + list(extra)


def self_test(binary):
    spec = load_spec()
    failures = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from " + ", ".join(WORKLOADS))
    for workload in WORKLOADS:
        for trace in (False, True):
            code, stdout, result = run_program(
                binary, program_args(workload, 1, 2, trace, ["--tiny"]))
            label = f"{workload} --trace {int(trace)}"
            if code != 0 or not result or result.get("correct") is not True:
                failures.append(f"{label}: exit {code}, result {result and result.get('correct')}")
            failures += [f"{label}: {p}" for p in metric_problems(spec, trace, stdout, result)]
            log(f"self-test {label}: done")
    for workload, fault in (("sfu_loopback", "corrupt-payload"), ("fleet", "fleet-digest")):
        code, _, result = run_program(
            binary, program_args(workload, 1, 2, False, ["--tiny", "--fault", fault]))
        if code == 0 or not result or result.get("correct") is not False:
            failures.append(f"{workload} with fault {fault} was not caught (exit {code})")
        else:
            log(f"self-test {workload} --fault {fault}: caught")
    for f in failures:
        log(f"SELF-TEST FAILED: {f}")
    log("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()
    if not opts.self_test and opts.workload is None:
        parser.error("--workload is required")
    if opts.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 1
    if opts.self_test:
        return self_test(binary)

    trace = opts.trace == 1
    code, stdout, result = run_program(
        binary, program_args(opts.workload, opts.seed, opts.seconds, trace))
    problems = metric_problems(load_spec(), trace, stdout, result)
    for p in problems:
        log(f"FAILED: {p}")
    sys.stdout.write(stdout)
    sys.stdout.flush()
    return code if code != 0 else (1 if problems else 0)


if __name__ == "__main__":
    sys.exit(main())
