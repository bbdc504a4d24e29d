#!/usr/bin/env python3
"""Table-2 service benchmark: build it, run one workload, check it.

Run from the repository root:

    python3 perfbench/run.py --workload exact_walk --seed 1 --seconds 30 --trace 0

The benchmark program is built from source into .bench_build/ (a package of its own,
perfbench/CMakeLists.txt). Every result is stamped with a host
fingerprint and appended to .bench_build/results.jsonl; a later run of
the same workload and seed on the same fingerprint must reproduce every
value the program reports as exact. The program runs with every ELRR_*
variable removed from its environment, so library defaults apply. The
last line of standard output is the result: {"correct", "attempted",
"failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
HISTORY = os.path.join(BUILD_DIR, "results.jsonl")
PROGRAM_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    source = os.path.dirname(os.path.abspath(__file__))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", source, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target",
                    "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(build_info):
    return {"cpu_model": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
            "compiler": build_info["compiler"],
            "build_type": build_info["build_type"],
            "elrr_native": build_info["native"]}


def check_history(record):
    """Errors against earlier runs of this workload and seed on this host."""
    errors = []
    if not os.path.exists(HISTORY):
        return errors
    with open(HISTORY, encoding="utf-8") as history:
        for line in history:
            old = json.loads(line)
            if (old["workload"], old["seed"]) != (record["workload"],
                                                  record["seed"]):
                continue
            if old["fingerprint"] != record["fingerprint"]:
                log("earlier run of this seed has another host fingerprint; "
                    "not compared")
                continue
            old_exact = old.get("exact", {})
            for name, value in record["exact"].items():
                if name in old_exact and old_exact[name] != value:
                    errors.append(f"{name} differs from an earlier run of "
                                  f"this seed")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        program = build()
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 1

    workdir = os.path.join(BUILD_DIR, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("ELRR_")}
    try:
        proc = subprocess.run(
            [program, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", workdir],
            stdout=subprocess.PIPE, text=True, env=env,
            timeout=PROGRAM_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"benchmark program did not finish within {PROGRAM_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"benchmark program exited {proc.returncode} without a report")
        return 1
    report = json.loads(lines[-1])

    record = {"fingerprint": fingerprint(report["build"]),
              "workload": report["workload"], "seed": report["seed"],
              "trace": report["trace"], "seconds": args.seconds,
              "batches": report["batches"], "metrics": report["metrics"],
              "counters": report["counters"], "exact": report["exact"]}
    errors = report["errors"] + check_history(record)
    for error in errors[len(report["errors"]):]:
        log(f"check failed: {error}")
    record["correct"] = not errors and proc.returncode == 0
    with open(HISTORY, "a", encoding="utf-8") as history:
        history.write(json.dumps(record, sort_keys=True) + "\n")

    print(json.dumps({"fingerprint": record["fingerprint"],
                      "counters": report["counters"]}))
    print(json.dumps({"correct": record["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": report["metrics"]}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
